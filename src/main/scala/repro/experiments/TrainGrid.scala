package repro.experiments

import org.apache.spark.sql.SparkSession

import repro.core.RecordManifest
import repro.imaging.DatasetSpec
import repro.pipeline.QueueModel
import repro.train.{Features, SoftmaxModel, Trainer}

/** Figures 7/10/11/12 and §6.2–6.3: time-to-accuracy at each scan group.
  *
  * Accuracy comes from really training the surrogate model on really
  * decoded scan-g luma (`Trainer.featuresAt`, which reads the records
  * with `PcrDecoder.read`); wall time per epoch comes from the queueing
  * model fed with the measured scan-prefix sizes and the Fig-5 cluster
  * parameters, exactly as the paper separates statistical efficiency
  * (epochs) from hardware efficiency (epoch time).
  */
final case class TrainPoint(
    dataset: String,
    arch: String,
    task: String,
    scanGroup: Int,
    testAccuracy: Double,
    epochSeconds: Double,
    totalSeconds: Double)

object TrainGrid {

  /** A training task: a relabeling of the dataset (paper Fig 11). */
  final case class Task(name: String, numClasses: Int, labelMap: Int => Int)

  def defaultTask(spec: DatasetSpec): Task = Task("baseline", spec.numClasses, identity)

  /** Mean bytes per image after reading up to scan `g`. */
  def meanBytes(manifests: Seq[RecordManifest], g: Int): Double =
    manifests.map(_.prefixBytes(g)).sum.toDouble / manifests.map(_.nImages.toLong).sum

  /** Simulated seconds per epoch at scan `g` on the Fig-5 cluster. */
  def epochSeconds(
      manifests: Seq[RecordManifest],
      g: Int,
      arch: Features.ModelArch,
      nImages: Long): Double = {
    val w = scaledBandwidth(Fig5Throughput.PaperAggregateBandwidth, manifests)
    val rate = QueueModel.clusterRate(Fig5Throughput.PaperNodes,
      arch.imagesPerSecPerNode, w, meanBytes(manifests, g))
    QueueModel.epochSeconds(nImages, rate)
  }

  def run(
      spark: SparkSession,
      spec: DatasetSpec,
      pcrDir: String,
      manifests: Seq[RecordManifest],
      arch: Features.ModelArch,
      task: Task,
      scans: Seq[Int] = ReportedScans,
      epochs: Int = 40,
      lr: Double = 2.0): Seq[TrainPoint] = {
    val nImages = manifests.map(_.nImages.toLong).sum
    val dim = Features.dim(arch, spec.width, spec.height)
    scans.map { g =>
      val ds = Trainer.featuresAt(spark, pcrDir, g, arch, task.labelMap).cache()
      try {
        val train = ds.filter(v => !Trainer.isTest(v.id))
        val test = ds.filter(v => Trainer.isTest(v.id))
        val (p, _) = Trainer.train(train, SoftmaxModel.init(task.numClasses, dim),
          epochs, lr, scanGroup = g)
        val acc = Trainer.accuracy(test, p)
        val eSec = epochSeconds(manifests, g, arch, nImages)
        TrainPoint(spec.name, arch.name, task.name, g, acc, eSec, eSec * epochs)
      } finally ds.unpersist()
    }
  }

  def render(rows: Seq[TrainPoint]): String =
    markdownTable(Seq("Dataset", "Arch", "Task", "Scan", "Test acc", "s/epoch", "Total s"), rows.map { r =>
      Seq(f"${r.dataset}%-9s", f"${r.arch}%-15s", f"${r.task}%-10s", f"${r.scanGroup}%4d",
        f"${r.testAccuracy * 100}%7.1f%%", f"${r.epochSeconds}%7.3f", f"${r.totalSeconds}%7.1f")
    })
}
