package repro.bench

import repro.SparkSpec
import repro.experiments.{Fig16Bandwidth, Fig5Throughput}
import repro.imaging.SyntheticImages
import repro.train.Features

/** Figure 16 — token-bucket bandwidth sweep on the 10-node cluster.
  *
  * Paper: at very low bandwidth every scan reduction helps (rates scale
  * with size ratios); at high bandwidth the rates converge to the compute
  * limit and low scans stop paying off. Faster models (ShuffleNet) stay
  * IO-pressured to higher bandwidths.
  */
class Fig16BandwidthBench extends SparkSpec {

  private val spec = SyntheticImages.imagenet

  private def sweep(arch: Features.ModelArch) = {
    val (_, manifests) = BenchData.pcrDataset(spec)
    Fig16Bandwidth.run(manifests, spec.imagesPerRecord,
      Fig5Throughput.PaperNodes * arch.imagesPerSecPerNode)
  }

  private lazy val resnet = sweep(Features.resnetLite)
  private lazy val shuffle = sweep(Features.shufflenetLite)

  test("Fig 16: report the bandwidth sweep for both models") {
    BenchData.report("Fig 16 (ResNet-18 bandwidth sweep, img/s)")(
      Fig16Bandwidth.render(resnet))
    BenchData.report("Fig 16 (ShuffleNet bandwidth sweep, img/s)")(
      Fig16Bandwidth.render(shuffle))
  }

  private def rate(rows: Seq[repro.experiments.SweepRow], bw: Int, g: Int): Double =
    rows.find(r => r.paperBandwidthMiB == bw && r.scanGroup == g).get.imagesPerSec

  test("rates never decrease with more bandwidth") {
    for (rows <- Seq(resnet, shuffle); g <- Seq(1, 2, 5, 10)) {
      val rs = Fig16Bandwidth.PaperBandwidthsMiB.map(rate(rows, _, g))
      rs.sliding(2).foreach { case Seq(a, b) => assert(b >= a * 0.999, s"scan $g: $rs") }
    }
  }

  test("at 20 MiB/s every scan reduction helps roughly by its size ratio") {
    val r1 = rate(resnet, 20, 1); val r10 = rate(resnet, 20, 10)
    assert(r1 / r10 > 5, s"scan1/scan10 at low bandwidth only ${r1 / r10}")
  }

  test("at 500 MiB/s low scans converge toward the compute limit") {
    val lowGap = rate(resnet, 20, 1) / rate(resnet, 20, 10)
    val highGap = rate(resnet, 500, 1) / rate(resnet, 500, 10)
    assert(highGap < lowGap / 2, s"gap did not close: low=$lowGap high=$highGap")
    assert(rate(resnet, 500, 1) > 0.9 * 4500, s"${rate(resnet, 500, 1)}")
  }

  test("the faster model stays IO-pressured at higher bandwidth (§6.6)") {
    // At 200 paper-MiB/s scan 1 vs scan 5 should matter more for
    // ShuffleNet than for ResNet (paper: "scan 1/2 are beneficial for
    // ShuffleNet at 200 MiB/s, but not ResNet").
    val gainResnet = rate(resnet, 200, 1) / rate(resnet, 200, 5)
    val gainShuffle = rate(shuffle, 200, 1) / rate(shuffle, 200, 5)
    assert(gainShuffle >= gainResnet, s"shuffle $gainShuffle < resnet $gainResnet")
  }
}
