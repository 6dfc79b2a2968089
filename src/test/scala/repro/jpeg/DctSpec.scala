package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

class DctSpec extends AnyFunSuite with PropSupport {

  private val blockGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](64, Gen.choose(-128.0, 127.0))

  test("forward then inverse is the identity (orthonormal transform)") {
    checkProp(Prop.forAll(blockGen) { b =>
      val r = Dct.inverse(Dct.forward(b))
      b.zip(r).forall { case (x, y) => math.abs(x - y) < 1e-9 }
    })
  }

  test("inverse then forward is the identity") {
    checkProp(Prop.forAll(blockGen) { b =>
      val r = Dct.forward(Dct.inverse(b))
      b.zip(r).forall { case (x, y) => math.abs(x - y) < 1e-9 }
    })
  }

  test("transform preserves energy (Parseval)") {
    checkProp(Prop.forAll(blockGen) { b =>
      val f = Dct.forward(b)
      val e1 = b.map(x => x * x).sum
      val e2 = f.map(x => x * x).sum
      math.abs(e1 - e2) < 1e-6 * math.max(1.0, e1)
    })
  }

  test("DC coefficient of a constant block is 8 × the value") {
    val b = Array.fill(64)(10.0)
    val f = Dct.forward(b)
    assert(math.abs(f(0) - 80.0) < 1e-9)
    f.drop(1).foreach(v => assert(math.abs(v) < 1e-9))
  }

  test("linearity") {
    checkProp(Prop.forAll(blockGen, blockGen) { (a, b) =>
      val sum = a.zip(b).map { case (x, y) => x + y }
      val fs = Dct.forward(sum)
      val fa = Dct.forward(a); val fb = Dct.forward(b)
      fs.indices.forall(i => math.abs(fs(i) - fa(i) - fb(i)) < 1e-8)
    })
  }

  test("rejects wrong-sized blocks") {
    assertThrows[IllegalArgumentException](Dct.forward(new Array[Double](63)))
    assertThrows[IllegalArgumentException](Dct.inverse(new Array[Double](65)))
  }

  test("a pure basis function concentrates into one coefficient") {
    val u0 = 3; val v0 = 5
    val block = Array.tabulate(64) { i =>
      val x = i / 8; val y = i % 8
      math.cos((2 * x + 1) * u0 * math.Pi / 16) * math.cos((2 * y + 1) * v0 * math.Pi / 16)
    }
    val f = Dct.forward(block)
    f.indices.filter(_ != u0 * 8 + v0).foreach(i => assert(math.abs(f(i)) < 1e-9))
    assert(math.abs(f(u0 * 8 + v0)) > 1.0)
  }

  // ------------------------------------------- exactness against ReferenceDct

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall { i =>
      java.lang.Double.doubleToRawLongBits(a(i)) == java.lang.Double.doubleToRawLongBits(b(i))
    }

  /** A dequantized coefficient: a quantized integer times a table entry,
    * or an arbitrary double.
    */
  private val coefGen: Gen[Double] = Gen.oneOf(
    for { v <- Gen.choose(-1024, 1024); q <- Gen.choose(1, 255) } yield v.toDouble * q,
    Gen.choose(-4096.0, 4096.0))

  private val dcOnlyGen: Gen[Array[Double]] =
    coefGen.map(dc => Array.tabulate(64)(i => if (i == 0) dc else 0.0))

  private val lineGen: Gen[Array[Double]] = for {
    line <- Gen.choose(0, 7)
    isRow <- Gen.oneOf(true, false)
    vals <- Gen.containerOfN[Array, Double](8, Gen.frequency(3 -> coefGen, 1 -> Gen.const(0.0)))
  } yield Array.tabulate(64) { i =>
    val (u, v) = (i / 8, i % 8)
    if (isRow && u == line) vals(v) else if (!isRow && v == line) vals(u) else 0.0
  }

  private val sparseGen: Gen[Array[Double]] = for {
    density <- Gen.choose(0, 64)
    picks <- Gen.containerOfN[Array, Int](64, Gen.choose(0, 63))
    vals <- Gen.containerOfN[Array, Double](64, coefGen)
  } yield Array.tabulate(64)(i => if (picks(i) < density) vals(i) else 0.0)

  private val denseGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](64, coefGen.suchThat(_ != 0.0))

  private val kinds = Seq(
    "DC-only" -> dcOnlyGen, "one row or column" -> lineGen,
    "random density" -> sparseGen, "dense" -> denseGen)

  for ((kind, gen) <- kinds) {
    test(s"inverse equals ReferenceDct bit for bit on $kind blocks") {
      // Scratch buffers are reused dirty across cases, as in the decoder.
      val out = new Array[Double](64); val tmp = new Array[Double](64)
      checkProp(Prop.forAll(gen) { c =>
        Dct.inverse(c, out, tmp)
        val ref = ReferenceDct.inverse(c)
        sameBits(out, ref) && sameBits(Dct.inverse(c), ref)
      }, 300)
    }

    test(s"forward equals ReferenceDct bit for bit on $kind blocks") {
      val out = new Array[Double](64); val tmp = new Array[Double](64)
      checkProp(Prop.forAll(gen) { b =>
        Dct.forward(b, out, tmp)
        val ref = ReferenceDct.forward(b)
        sameBits(out, ref) && sameBits(Dct.forward(b), ref)
      }, 300)
    }
  }

  test("forward equals ReferenceDct bit for bit on level-shifted pixel blocks") {
    val pixels = Gen.containerOfN[Array, Double](64, Gen.choose(0, 255).map(_ - 128.0))
    checkProp(Prop.forAll(pixels)(b => sameBits(Dct.forward(b), ReferenceDct.forward(b))), 300)
  }
}
