package repro.train

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.core.PcrDecoder
import repro.core.datasource.PcrScan

/** Full-batch gradient training driven by Spark.
  *
  * An epoch is one RDD job: each task reads a run of record files through
  * [[PcrDecoder.read]], decoding luma only, and no Spark SQL query is
  * planned. Gradients are exact (no minibatch noise) and summed in
  * partition order, so the same data and parameters give the same gradient
  * bit for bit.
  */
object Trainer {

  /** Every image of the PCR directory `pcrDir` at `scanGroup` as a
    * [[LabeledVec]] via `arch`'s feature extractor; `labelMap` remaps
    * labels for coarse tasks. The records are split into runs the way the
    * `pcr` scan packs its partitions, one task per run, and each task
    * builds its vectors straight from the decoded luma planes.
    */
  def featuresAt(
      spark: SparkSession,
      pcrDir: String,
      scanGroup: Int,
      arch: Features.ModelArch,
      labelMap: Int => Int = identity): RDD[LabeledVec] = {
    val g = PcrScan.checkScanGroup(scanGroup)
    val runs = PcrScan.packRecords(spark, pcrDir)
    if (runs.isEmpty) spark.sparkContext.emptyRDD[LabeledVec]
    else spark.sparkContext.parallelize(runs, runs.size).flatMap(_.iterator.flatMap { path =>
      val r = PcrDecoder.read(path, g, Seq(0))
      val h = r.header
      r.images.indices.iterator.map(k => LabeledVec(h.ids(k), labelMap(h.labels(k)), arch.luma(h.width, h.height, r.images(k).y)))
    })
  }

  /** Deterministic 80/20 split on image id. */
  def isTest(id: Long): Boolean = id % 5 == 4

  /** Folds each partition of `data` into one partial with `add`, starting
    * from `zero()`, then merges the partials with `merge` in partition
    * order. Unlike `treeAggregate`, whose last fold takes partials in the
    * order tasks finish, the result does not depend on task timing.
    */
  private def foldInOrder[A: ClassTag](data: RDD[LabeledVec])(zero: () => A)(
      add: (A, LabeledVec) => A)(merge: (A, A) => A): A =
    data.mapPartitions(it => Iterator.single(it.foldLeft(zero())(add)))
      .collect().foldLeft(zero())(merge)

  /** Mean gradient, mean loss and count over `data` at frozen `params`. */
  def gradient(data: RDD[LabeledVec], params: SoftmaxParams): (Array[Double], Double, Long) = {
    val size = params.theta.length
    val (gradSum, lossSum, n) = foldInOrder(data)(() => (new Array[Double](size), 0.0, 0L)) {
      case ((g, l, c), v) => (g, l + SoftmaxModel.accumulate(params, v.features, v.label, g), c + 1)
    } { case ((g1, l1, c1), (g2, l2, c2)) =>
      var i = 0
      while (i < g1.length) { g1(i) += g2(i); i += 1 }
      (g1, l1 + l2, c1 + c2)
    }
    require(n > 0, "empty training set")
    var i = 0
    while (i < gradSum.length) { gradSum(i) /= n; i += 1 }
    (gradSum, lossSum / n, n)
  }

  /** Fraction of examples classified correctly at `params`. */
  def accuracy(data: RDD[LabeledVec], params: SoftmaxParams): Double = {
    val (correct, n) = foldInOrder(data)(() => (0L, 0L)) { case ((ok, c), v) =>
      (ok + (if (SoftmaxModel.predict(params, v.features) == v.label) 1L else 0L), c + 1)
    } { case ((a1, c1), (a2, c2)) => (a1 + a2, c1 + c2) }
    require(n > 0, "empty evaluation set")
    correct.toDouble / n
  }

  /** One observed point of a training run. */
  final case class EpochStat(epoch: Int, loss: Double, scanGroup: Int)

  /** Train `epochs` full-batch steps at fixed data fidelity. */
  def train(
      data: RDD[LabeledVec],
      params0: SoftmaxParams,
      epochs: Int,
      lr: Double,
      l2: Double = 1e-4,
      scanGroup: Int = 0): (SoftmaxParams, Vector[EpochStat]) = {
    var p = params0
    val stats = Vector.newBuilder[EpochStat]
    var e = 0
    while (e < epochs) {
      val (g, loss, _) = gradient(data, p)
      p = SoftmaxModel.step(p, g, lr, l2)
      stats += EpochStat(e, loss, scanGroup)
      e += 1
    }
    (p, stats.result())
  }
}
