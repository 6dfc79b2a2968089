package repro.bench

import repro.SparkSpec
import repro.core.ScanSizes
import repro.experiments.Table1Sizes
import repro.imaging.SyntheticImages

/** Table 1 — image size reduction per scan group and mean image size.
  *
  * Paper values (reduction factor vs. full size / mean size):
  *   ImageNet  16× 7× 2× 1× — 110 kB
  *   HAM10000  30× 15× 3× 1× — 250 kB
  *   Cars      14× 6× 2× 1× — 110 kB
  *   CelebAHQ   7× 4× 3× 1× —  80 kB
  */
class Table1SizesBench extends SparkSpec {

  private lazy val stats =
    SyntheticImages.all.map(spec => ScanSizes.fromRecords(spec.name,
      BenchData.pcrDataset(spec)._2, BenchData.tfrDataset(spec)._2))

  test("Table 1: measure and report per-scan size reductions") {
    BenchData.report("Table 1 (sizes, SF=" + BenchData.sf + ")")(Table1Sizes.render(stats))
  }

  test("reduction factors decrease monotonically with the scan group") {
    for (s <- stats) {
      assert(s.reductionFactor(1) > s.reductionFactor(2), s.dataset)
      assert(s.reductionFactor(2) > s.reductionFactor(5), s.dataset)
      assert(s.reductionFactor(5) > s.reductionFactor(10), s.dataset)
      assert(math.abs(s.reductionFactor(10) - 1.0) < 1e-9, s.dataset)
    }
  }

  test("scan 1 carries an order-of-magnitude reduction (paper: 7–30×)") {
    for (s <- stats)
      assert(s.reductionFactor(1) > 5 && s.reductionFactor(1) < 100,
        s"${s.dataset}: ${s.reductionFactor(1)}")
  }

  test("scan 5 sits near the paper's ~2–3× half-size point") {
    for (s <- stats)
      assert(s.reductionFactor(5) > 1.2 && s.reductionFactor(5) < 4.0,
        s"${s.dataset}: ${s.reductionFactor(5)}")
  }

  test("cross-dataset ordering matches the paper") {
    val byName = stats.map(s => s.dataset -> s).toMap
    // HAM10000 has the largest images and the deepest scan-1 reduction;
    // CelebAHQ (quality 75, smooth) the shallowest.
    assert(byName("ham10000").meanFullBytes > byName("imagenet").meanFullBytes)
    assert(byName("ham10000").reductionFactor(1) > byName("imagenet").reductionFactor(1))
    assert(byName("celebahq").reductionFactor(1) ==
      stats.map(_.reductionFactor(1)).min)
  }

  test("cumulative scan sizes grow monotonically (Figure 8)") {
    for (s <- stats)
      s.meanCumulativeBytes.sliding(2).foreach { case Seq(a, b) =>
        assert(b > a, s"${s.dataset}: cumulative sizes not increasing")
      }
  }

  test("progressive total is within ±30% of the baseline sequential size") {
    for (s <- stats) {
      val ratio = s.meanFullBytes / s.meanBaselineBytes
      assert(ratio > 0.7 && ratio < 1.3, s"${s.dataset}: progressive/baseline $ratio")
    }
  }
}
