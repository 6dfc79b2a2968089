package repro.imaging

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  test("streams are deterministic in the seed") {
    val a = new Rng(123); val b = new Rng(123)
    (0 until 100).foreach(_ => assert(a.nextLong() == b.nextLong()))
  }

  test("different seeds give different streams") {
    val a = new Rng(1); val b = new Rng(2)
    assert((0 until 10).exists(_ => a.nextLong() != b.nextLong()))
  }

  test("nextDouble stays in [0,1) and covers the range") {
    val r = new Rng(7)
    val xs = Seq.fill(10000)(r.nextDouble())
    assert(xs.forall(x => x >= 0.0 && x < 1.0))
    assert(xs.min < 0.01 && xs.max > 0.99)
    val mean = xs.sum / xs.size
    assert(math.abs(mean - 0.5) < 0.02, s"mean $mean")
  }

  test("uniform respects its bounds") {
    val r = new Rng(9)
    (0 until 1000).foreach { _ =>
      val v = r.uniform(-3.0, 5.5)
      assert(v >= -3.0 && v < 5.5)
    }
  }

  test("gaussian has ~zero mean and ~unit variance") {
    val r = new Rng(11)
    val xs = Seq.fill(20000)(r.nextGaussian())
    val mean = xs.sum / xs.size
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.03, s"mean $mean")
    assert(math.abs(varr - 1.0) < 0.05, s"var $varr")
  }

  test("nextGaussians gives the bits of successive nextGaussian calls and leaves the stream where they do") {
    for (seed <- Seq(0L, 1L, -7L, Long.MaxValue); n <- Seq(0, 1, 2, 7, 128, 1000)) {
      val a = new Rng(seed); val b = new Rng(seed)
      val out = new Array[Double](n)
      a.nextGaussians(out)
      val expected = Array.fill(n)(b.nextGaussian())
      assert(out.map(java.lang.Double.doubleToRawLongBits).sameElements(
        expected.map(java.lang.Double.doubleToRawLongBits)), s"seed $seed n $n")
      assert(a.nextLong() == b.nextLong(), s"seed $seed n $n")
    }
  }

  test("mix is deterministic and sensitive to both arguments") {
    assert(Rng.mix(1, 2) == Rng.mix(1, 2))
    assert(Rng.mix(1, 2) != Rng.mix(2, 1))
    assert(Rng.mix(1, 2) != Rng.mix(1, 3))
  }
}
