package repro.experiments

import repro.core.RecordManifest
import repro.pipeline.LoaderSim
import repro.storage.{DiskModel, TokenBucket}

/** Figure 16: the token-bucket bandwidth sweep — training rate of the
  * 10-node cluster at aggregate bandwidth caps of (the scaled analogs of)
  * 20/50/100/200/500 MiB/s, per scan group and per model.
  */
final case class SweepRow(
    paperBandwidthMiB: Int,
    scanGroup: Int,
    imagesPerSec: Double)

object Fig16Bandwidth {
  val PaperBandwidthsMiB: Seq[Int] = Seq(20, 50, 100, 200, 500)

  def run(
      manifests: Seq[RecordManifest],
      imagesPerRecord: Int,
      clusterComputeRate: Double): Seq[SweepRow] = {
    // The caps scale as MiB × (ours / paper), not through scaledBandwidth,
    // whose other order of the product could change the reported rates.
    val scale = meanImageBytes(manifests) / PaperMeanImageBytes
    // The limiter is the bottleneck under test; the device itself is the
    // scaled peak-bandwidth disk of Fig 5.
    val disk = DiskModel(scaledBandwidth(Fig5Throughput.PaperAggregateBandwidth, manifests),
      DiskModel.hdd.seekLatencySec)
    for {
      bwMiB <- PaperBandwidthsMiB
      g <- ReportedScans
    } yield {
      val cap = bwMiB * 1024.0 * 1024.0 * scale
      val sim = LoaderSim.simulate(manifests.map(_.prefixBytes(g)), imagesPerRecord,
        clusterComputeRate, disk, limiter = Some(new TokenBucket(cap, cap)), epochs = SimulatedEpochs)
      SweepRow(bwMiB, g, sim.imagesPerSec)
    }
  }

  def render(rows: Seq[SweepRow]): String =
    markdownTable(Seq("Paper-BW (MiB/s)", "scan 1", "scan 2", "scan 5", "scan 10"),
      PaperBandwidthsMiB.map { bw =>
        val byScan = rows.filter(_.paperBandwidthMiB == bw).map(r => r.scanGroup -> r.imagesPerSec).toMap
        Seq(f"${bw}%16d", f"${byScan(1)}%6.0f", f"${byScan(2)}%6.0f", f"${byScan(5)}%6.0f",
          f"${byScan(10)}%7.0f")
      })
}
