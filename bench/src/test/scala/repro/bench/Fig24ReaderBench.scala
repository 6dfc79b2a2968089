package repro.bench

import repro.SparkSpec
import repro.experiments.Fig24Reader
import repro.imaging.SyntheticImages

/** Figure 24 / §A.5 — reader microbenchmark (no decode).
  *
  * Paper shape: the reader is IO-dominated; images/s scales inversely with
  * the bytes per scan group, and baseline-encoded records read within a few
  * percent of scan-10 progressive records.
  */
class Fig24ReaderBench extends SparkSpec {

  private lazy val rates = {
    val (dir, _) = BenchData.pcrDataset(SyntheticImages.imagenet)
    Fig24Reader.run(dir)
  }

  test("Fig 24: report raw reader rates") {
    BenchData.report("Fig 24 (PCR reader rates, imagenet, no decode)")(
      Fig24Reader.render(rates))
  }

  test("images/s increases as the scan group decreases") {
    val byScan = rates.map(r => r.scanGroup -> r.imagesPerSec).toMap
    assert(byScan(1) > 0.95 * byScan(5), s"$byScan")
    assert(byScan(5) > byScan(10), s"$byScan")
    assert(byScan(1) > byScan(10), s"$byScan")
  }

  test("read-rate ratios track byte ratios once bytes dominate overhead") {
    val byScan = rates.map(r => r.scanGroup -> r).toMap
    def bytesPerImage(g: Int) = byScan(g).megabytesPerSec / byScan(g).imagesPerSec
    // Between scans 5 and 10 the per-image parse overhead is amortized and
    // Theorem 4.1's byte-ratio prediction applies.
    val byteRatio = bytesPerImage(10) / bytesPerImage(5)
    val rateRatio = byScan(5).imagesPerSec / byScan(10).imagesPerSec
    assert(rateRatio > 0.5 * byteRatio, s"rate $rateRatio vs bytes $byteRatio")
    // Tiny scan-1 prefixes are bound by per-image overhead (our analog of
    // the paper's IOPS floor) but still read fastest overall.
    assert(byScan(1).imagesPerSec / byScan(10).imagesPerSec > 1.5,
      s"scan-1 read speedup only ${byScan(1).imagesPerSec / byScan(10).imagesPerSec}")
  }

  test("reader throughput is far above the simulated storage budget") {
    // §5: "we can read over 400 MiB/s using just a single CPU core" — our
    // reader must not be the bottleneck relative to the simulated cluster.
    rates.foreach(r => assert(r.imagesPerSec > 1000, s"scan ${r.scanGroup}: ${r.imagesPerSec}"))
  }
}
