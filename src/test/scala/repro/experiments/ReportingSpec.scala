package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

/** The trial loop and the table renderer the harnesses share. */
class ReportingSpec extends AnyFunSuite {

  test("bestOf5 runs two warm-up rounds then five timed rounds, in order, and keeps each minimum") {
    val calls = Seq.newBuilder[Int]
    // Configuration i reports 10 * i + (call number) seconds, except that its
    // first warm-up call reports 0 and its fourth timed call reports i.
    def config(i: Int): () => Double = {
      var n = 0
      () => {
        calls += i
        n += 1
        if (n == 1) 0.0 else if (n == 2 + 4) i.toDouble else 10.0 * i + n
      }
    }
    val best = bestOf5(Seq(config(1), config(2), config(3)))
    assert(calls.result() == Seq.fill(7)(Seq(1, 2, 3)).flatten)
    assert(best == Seq(1.0, 2.0, 3.0))
  }

  test("a table with a text first column, as Table 2 prints it") {
    val rows = Seq(
      DecodeRates("imagenet", 250, Map(1 -> 21345.4, 2 -> 9876.5, 5 -> 4321.0, 10 -> 2100.2), 2400.6),
      DecodeRates("ham10000", 100, Map(1 -> 3456.0, 2 -> 1234.5, 5 -> 456.7, 10 -> 400.0), 420.0))
    assert(Table2Decode.render(rows) == Seq(
      "| Dataset   | Scan 1 | Scan 2 | Scan 5 | Scan 10 | Baseline |",
      "|-----------|--------|--------|--------|---------|----------|",
      "| imagenet  |  21345 |   9877 |   4321 |    2100 |     2401 |",
      "| ham10000  |   3456 |   1235 |    457 |     400 |      420 |").mkString("\n"))
  }

  test("a table with a numeric first column, as Fig 24 prints it; a wider cell widens its header") {
    val rows = Seq(ReaderRate(1, 812345.0, 123.4), ReaderRate(10, 40123.9, 12345.6))
    assert(Fig24Reader.render(rows) == Seq(
      "| Scan group | images/s | MB/s  |",
      "|------------|----------|-------|",
      "|          1 |   812345 |  123 |",
      "|         10 |    40124 | 12346 |").mkString("\n"))
  }
}
