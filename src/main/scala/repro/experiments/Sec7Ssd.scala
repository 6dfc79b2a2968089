package repro.experiments

import repro.core.RecordManifest
import repro.pipeline.LoaderSim
import repro.storage.DiskModel

/** §7 "Generalizing across hardware": a single cloud node (P100 analog)
  * loading from an SSD with 74 MB/s peak bandwidth. The paper measures
  * ImageNet/ShuffleNet at 650 img/s (TFRecord), and 680 / 1540 / 1700 /
  * 1750 img/s for PCR scans 10/5/2/1 — and notes that doubling CPU+GPU+SSD
  * preserves the same relative advantages.
  */
final case class SsdRow(config: String, imagesPerSec: Double)

object Sec7Ssd {
  val PaperSsdBandwidth: Double = 74e6  // bytes/s
  val PaperComputeRate: Double = 1800.0 // img/s — ShuffleNet on one P100

  def run(
      manifests: Seq[RecordManifest],
      tfrBytes: Seq[Long],
      imagesPerRecord: Int,
      resourceScale: Double = 1.0): Seq[SsdRow] = {
    val w = scaledBandwidth(PaperSsdBandwidth, manifests) * resourceScale
    val disk = DiskModel(w, DiskModel.ssd.seekLatencySec)
    val compute = PaperComputeRate * resourceScale
    val scanRows = ReportedScans.map { g =>
      val sim = LoaderSim.simulate(manifests.map(_.prefixBytes(g)), imagesPerRecord,
        compute, disk, epochs = SimulatedEpochs)
      SsdRow(s"scan $g", sim.imagesPerSec)
    }
    val tfrSim = LoaderSim.simulate(tfrBytes, imagesPerRecord, compute, disk, epochs = SimulatedEpochs)
    scanRows :+ SsdRow("TFRecord", tfrSim.imagesPerSec)
  }

  def render(rows: Seq[SsdRow]): String =
    rows.map(r => f"| ${r.config}%-9s | ${r.imagesPerSec}%7.0f img/s |").mkString("\n")
}
