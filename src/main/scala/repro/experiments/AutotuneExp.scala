package repro.experiments

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.core.{AutotuneConfig, Autotuner, RecordManifest}
import repro.imaging.DatasetSpec
import repro.train._

/** Figures 6 and 14 / §6.5: the gradient-similarity trace across scans over
  * training, and the autotuned run versus static scan schedules.
  */
object AutotuneExp {

  final case class SimilarityPoint(epoch: Int, scanGroup: Int, similarity: Double)

  final case class RunSummary(
      name: String,
      totalSimSeconds: Double,
      finalTestAccuracy: Double,
      scanSchedule: Seq[Int])

  private def loadByScan(
      spark: SparkSession,
      pcrDir: String,
      arch: Features.ModelArch,
      scans: Seq[Int]): Map[Int, RDD[LabeledVec]] =
    scans.map(g => g -> Trainer.featuresAt(spark, pcrDir, g, arch).cache()).toMap

  /** Train at the reference scan; every `measureEvery` epochs freeze the
    * model and measure each scan's gradient similarity (paper Fig 6).
    */
  def similarityTrace(
      spark: SparkSession,
      spec: DatasetSpec,
      pcrDir: String,
      arch: Features.ModelArch,
      scans: Seq[Int] = ReportedScans,
      epochs: Int = 30,
      measureEvery: Int = 10,
      lr: Double = 2.0): Seq[SimilarityPoint] = {
    val byScan = loadByScan(spark, pcrDir, arch, scans)
    try {
      val trainByScan = byScan.map { case (g, ds) => g -> ds.filter(v => !Trainer.isTest(v.id)) }
      val dim = Features.dim(arch, spec.width, spec.height)
      var p = SoftmaxModel.init(spec.numClasses, dim)
      val out = Seq.newBuilder[SimilarityPoint]
      for (e <- 0 until epochs by measureEvery) {
        val sims = Autotuner.similarities(trainByScan, scans, scans.max, p)
        out ++= scans.map(g => SimilarityPoint(e, g, sims(g)))
        p = Trainer.train(trainByScan(scans.max), p, math.min(measureEvery, epochs - e), lr)._1
      }
      out.result()
    } finally byScan.values.foreach(_.unpersist())
  }

  /** Autotuned training compared with static scan-10 and static scan-5
    * schedules (paper Fig 14): same epochs, simulated wall time + accuracy.
    */
  def compare(
      spark: SparkSession,
      spec: DatasetSpec,
      pcrDir: String,
      manifests: Seq[RecordManifest],
      arch: Features.ModelArch,
      epochs: Int = 40,
      lr: Double = 2.0,
      cfg: AutotuneConfig = AutotuneConfig(warmupEpochs = 5, tunePeriod = 10)): Seq[RunSummary] = {
    val scans = cfg.candidateScans
    val byScanAll = loadByScan(spark, pcrDir, arch, scans)
    try {
      val byScanTrain = byScanAll.map { case (g, ds) =>
        g -> ds.filter(v => !Trainer.isTest(v.id))
      }
      val test = byScanAll(scans.max).filter(v => Trainer.isTest(v.id))
      val nImages = manifests.map(_.nImages.toLong).sum
      val dim = Features.dim(arch, spec.width, spec.height)
      def eSec(g: Int): Double = TrainGrid.epochSeconds(manifests, g, arch, nImages)

      val (pTuned, stats) = Autotuner.train(byScanTrain,
        SoftmaxModel.init(spec.numClasses, dim), epochs, lr, 1e-4, cfg, eSec)
      val tuned = RunSummary("autotuned", stats.map(_.epochSeconds).sum,
        Trainer.accuracy(test, pTuned), stats.map(_.scanGroup))

      val statics = Seq(scans.max, 5).distinct.map { g =>
        val (p, _) = Trainer.train(byScanTrain(g),
          SoftmaxModel.init(spec.numClasses, dim), epochs, lr, scanGroup = g)
        RunSummary(s"static scan $g", eSec(g) * epochs, Trainer.accuracy(test, p),
          Seq.fill(epochs)(g))
      }
      tuned +: statics
    } finally byScanAll.values.foreach(_.unpersist())
  }

  def renderTrace(points: Seq[SimilarityPoint]): String = {
    val scans = points.map(_.scanGroup).distinct.sorted
    markdownTable("Epoch" +: scans.map(g => s"scan $g"), points.map(_.epoch).distinct.sorted.map { e =>
      val bySc = points.filter(_.epoch == e).map(p => p.scanGroup -> p.similarity).toMap
      f"$e%5d" +: scans.map(g => f"${bySc(g)}%7.3f")
    })
  }

  def renderRuns(runs: Seq[RunSummary]): String =
    runs.map { r =>
      f"${r.name}%-15s total=${r.totalSimSeconds}%8.2f s  acc=${r.finalTestAccuracy * 100}%5.1f%%  " +
        s"scans=${compress(r.scanSchedule)}"
    }.mkString("\n")

  private def compress(xs: Seq[Int]): String =
    xs.foldLeft(List.empty[(Int, Int)]) {
      case ((v, n) :: rest, x) if v == x => (v, n + 1) :: rest
      case (acc, x) => (x, 1) :: acc
    }.reverse.map { case (v, n) => s"$v×$n" }.mkString(",")
}
