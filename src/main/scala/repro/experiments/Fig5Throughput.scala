package repro.experiments

import repro.core.{BaselineFormats, RecordManifest}
import repro.imaging.DatasetSpec
import repro.pipeline.{LoaderSim, QueueModel}
import repro.storage.DiskModel

/** Figure 5 / 25 / §6.2: end-to-end training rate of a 10-node cluster at
  * each scan group versus the TFRecord and File-per-Image baselines.
  *
  * The cluster is the paper's queueing network driven with *our measured*
  * byte sizes: aggregate storage bandwidth is the paper's 400 MiB/s scaled
  * by the ratio of our mean image size to the paper's 110 kB, so the
  * IO-vs-compute balance of the testbed is preserved while every byte count
  * comes from the real encoder output.
  */
final case class RateRow(
    config: String,
    meanBytesPerImage: Double,
    simulatedImagesPerSec: Double,
    predictedImagesPerSec: Double)

object Fig5Throughput {
  val PaperNodes = 10
  val PaperAggregateBandwidth: Double = 400.0 * 1024 * 1024 // §6.1: "400+ MiB/s"

  def run(
      spec: DatasetSpec,
      manifests: Seq[RecordManifest],
      tfrFiles: Seq[(String, Long)],
      computePerNode: Double,
      nNodes: Int = PaperNodes): Seq[RateRow] = {
    val nImages = manifests.map(_.nImages.toLong).sum
    val w = scaledBandwidth(PaperAggregateBandwidth, manifests)
    val disk = DiskModel(w, DiskModel.hdd.seekLatencySec)
    val clusterCompute = nNodes * computePerNode
    val ipr = spec.imagesPerRecord

    def predicted(records: Seq[Long]): Double = {
      val meanRecord = records.sum.toDouble / records.size
      math.min(clusterCompute,
        QueueModel.ioRateWithSetup(w, meanRecord, ipr, disk.seekLatencySec))
    }

    val scanRows = ReportedScans.map { g =>
      val records = manifests.map(_.prefixBytes(g))
      val mean = records.sum.toDouble / nImages
      val sim = LoaderSim.simulate(records, ipr, clusterCompute, disk, epochs = SimulatedEpochs)
      RateRow(s"scan $g", mean, sim.imagesPerSec, predicted(records))
    }

    val tfrMean = tfrFiles.map(_._2).sum.toDouble / nImages
    val tfrSim = LoaderSim.simulate(tfrFiles.map(_._2), ipr, clusterCompute, disk, epochs = SimulatedEpochs)
    val tfrRow = RateRow("TFRecord", tfrMean, tfrSim.imagesPerSec,
      predicted(tfrFiles.map(_._2)))

    // File-per-Image: every image is an individual seek-bound read.
    val perImage = tfrFiles.flatMap { case (p, _) => BaselineFormats.payloadBytes(p) }
    val fpiSim = LoaderSim.simulateFilePerImage(perImage, clusterCompute, disk)
    val fpiRow = RateRow("File-per-Image", tfrMean, fpiSim.imagesPerSec, fpiSim.imagesPerSec)

    scanRows :+ tfrRow :+ fpiRow
  }

  def render(rows: Seq[RateRow]): String =
    markdownTable(Seq("Config", "bytes/img", "sim img/s", "predicted img/s"), rows.map { r =>
      Seq(f"${r.config}%-14s", f"${r.meanBytesPerImage}%9.0f", f"${r.simulatedImagesPerSec}%9.0f",
        f"${r.predictedImagesPerSec}%15.0f")
    })
}
