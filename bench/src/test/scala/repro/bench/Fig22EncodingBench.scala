package repro.bench

import repro.SparkSpec
import repro.experiments.Fig22Encoding
import repro.imaging.SyntheticImages

/** Figure 22 / §A.4 — encoding cost of PCR vs. static re-encodings.
  *
  * Paper shape: one PCR conversion costs 1.13–2.05× a single static
  * re-encode, but far less than the sum of the static encodings a
  * multi-fidelity pipeline would need; static conversion time barely
  * depends on the quality setting.
  */
class Fig22EncodingBench extends SparkSpec {

  private lazy val rows = {
    // One untimed encode first, so no timed one pays for JVM and Spark warm-up.
    Fig22Encoding.measure(spark, SyntheticImages.all.head, BenchData.sf, s"${BenchData.baseDir}/fig22-warmup")
    SyntheticImages.all.map { spec =>
      Fig22Encoding.measure(spark, spec, BenchData.sf, s"${BenchData.baseDir}/fig22")
    }
  }

  test("Fig 22: report encoding times") {
    BenchData.report(s"Fig 22 (encoding times, SF=${BenchData.sf})")(
      Fig22Encoding.render(rows))
  }

  test("one PCR conversion beats encoding every static fidelity") {
    for (r <- rows)
      assert(r.pcrSeconds < r.staticTotalSeconds,
        s"${r.dataset}: PCR ${r.pcrSeconds}s vs static total ${r.staticTotalSeconds}s")
  }

  test("PCR conversion stays within ~3x of a single static encode") {
    for (r <- rows) {
      val worstStatic = r.staticSeconds.values.max
      assert(r.pcrSeconds < 3.0 * worstStatic,
        s"${r.dataset}: PCR ${r.pcrSeconds}s vs worst static ${worstStatic}s")
    }
  }

  test("static conversion times vary little with quality (paper: <16%)") {
    for (r <- rows) {
      val ts = r.staticSeconds.values.toSeq
      assert(ts.max / ts.min < 2.0, s"${r.dataset}: static spread ${ts.max / ts.min}")
    }
  }

  test("lower static quality produces smaller datasets") {
    for (r <- rows)
      assert(r.staticBytes(50) < r.staticBytes(95),
        s"${r.dataset}: q50 ${r.staticBytes(50)} vs q95 ${r.staticBytes(95)}")
  }
}
