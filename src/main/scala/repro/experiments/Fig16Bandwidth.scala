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
    val ourMeanImageBytes = Fig5Throughput.meanImageBytes(manifests)
    val scale = ourMeanImageBytes / Fig5Throughput.PaperMeanImageBytes
    for {
      bwMiB <- PaperBandwidthsMiB
      g <- Seq(1, 2, 5, 10)
    } yield {
      val cap = bwMiB * 1024.0 * 1024.0 * scale
      val records = manifests.map(_.prefixBytes(g))
      // The limiter is the bottleneck under test; the device itself is the
      // scaled peak-bandwidth disk of Fig 5.
      val disk = DiskModel(Fig5Throughput.scaledBandwidth(ourMeanImageBytes),
        DiskModel.hdd.seekLatencySec)
      val sim = LoaderSim.simulate(records, imagesPerRecord, clusterComputeRate, disk,
        limiter = Some(new TokenBucket(cap, cap)), epochs = 3)
      SweepRow(bwMiB, g, sim.imagesPerSec)
    }
  }

  def render(rows: Seq[SweepRow]): String = {
    val scans = Seq(1, 2, 5, 10)
    val header = Seq(
      "| Paper-BW (MiB/s) | scan 1 | scan 2 | scan 5 | scan 10 |",
      "|------------------|--------|--------|--------|---------|")
    val body = PaperBandwidthsMiB.map { bw =>
      val byScan = rows.filter(_.paperBandwidthMiB == bw).map(r => r.scanGroup -> r.imagesPerSec).toMap
      f"| ${bw}%16d | ${byScan(scans(0))}%6.0f | ${byScan(scans(1))}%6.0f " +
        f"| ${byScan(scans(2))}%6.0f | ${byScan(scans(3))}%7.0f |"
    }
    (header ++ body).mkString("\n")
  }
}
