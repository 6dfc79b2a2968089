package repro.train

import org.apache.spark.sql.{Dataset, SparkSession}

/** Full-batch gradient training driven by Spark.
  *
  * Gradients are exact (no minibatch noise), computed with one
  * `treeAggregate` pass per step — the distributed-reduction structure of
  * data-parallel SGD, which is all the paper's measurements depend on.
  */
object Trainer {

  /** Decode the luma plane of each DSv2 `pcr` row into a [[LabeledVec]]
    * via `arch`'s feature extractor; `labelMap` remaps labels for coarse
    * tasks. The scan selects `y` only, so no chroma is decoded.
    */
  def featuresAt(
      spark: SparkSession,
      pcrDir: String,
      scanGroup: Int,
      arch: Features.ModelArch,
      labelMap: Int => Int = identity): Dataset[LabeledVec] = {
    import spark.implicits._
    spark.read.format("pcr").option("scanGroup", scanGroup).load(pcrDir)
      .select("id", "label", "width", "height", "y")
      .as[(Long, Int, Int, Int, Array[Byte])]
      .map { case (id, label, w, h, y) => LabeledVec(id, labelMap(label), arch.luma(w, h, unsigned(y))) }
  }

  /** A plane of unsigned bytes as the pixel values 0–255. */
  private def unsigned(a: Array[Byte]): Array[Int] = {
    val out = new Array[Int](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) & 0xff; i += 1 }
    out
  }

  /** Deterministic 80/20 split on image id. */
  def isTest(id: Long): Boolean = id % 5 == 4

  /** Mean gradient, mean loss and count over `ds` at frozen `params`. */
  def gradient(ds: Dataset[LabeledVec], params: SoftmaxParams): (Array[Double], Double, Long) = {
    val size = params.theta.length
    val (gradSum, lossSum, n) = ds.rdd.treeAggregate(
      (new Array[Double](size), 0.0, 0L))(
      seqOp = { case ((g, l, c), v) =>
        val loss = SoftmaxModel.accumulate(params, v.features, v.label, g)
        (g, l + loss, c + 1)
      },
      combOp = { case ((g1, l1, c1), (g2, l2, c2)) =>
        var i = 0
        while (i < g1.length) { g1(i) += g2(i); i += 1 }
        (g1, l1 + l2, c1 + c2)
      })
    require(n > 0, "empty training set")
    var i = 0
    while (i < gradSum.length) { gradSum(i) /= n; i += 1 }
    (gradSum, lossSum / n, n)
  }

  /** Fraction of examples classified correctly at `params`. */
  def accuracy(ds: Dataset[LabeledVec], params: SoftmaxParams): Double = {
    val (correct, n) = ds.rdd.treeAggregate((0L, 0L))(
      seqOp = { case ((ok, c), v) =>
        (ok + (if (SoftmaxModel.predict(params, v.features) == v.label) 1L else 0L), c + 1)
      },
      combOp = { case ((a1, c1), (a2, c2)) => (a1 + a2, c1 + c2) })
    require(n > 0, "empty evaluation set")
    correct.toDouble / n
  }

  /** One observed point of a training run. */
  final case class EpochStat(epoch: Int, loss: Double, scanGroup: Int)

  /** Train `epochs` full-batch steps at fixed data fidelity. */
  def train(
      ds: Dataset[LabeledVec],
      params0: SoftmaxParams,
      epochs: Int,
      lr: Double,
      l2: Double = 1e-4,
      scanGroup: Int = 0): (SoftmaxParams, Vector[EpochStat]) = {
    var p = params0
    val stats = Vector.newBuilder[EpochStat]
    var e = 0
    while (e < epochs) {
      val (g, loss, _) = gradient(ds, p)
      p = SoftmaxModel.step(p, g, lr, l2)
      stats += EpochStat(e, loss, scanGroup)
      e += 1
    }
    (p, stats.result())
  }
}
