package repro.jpeg

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport

/** [[Codec.encodeScan]] against [[ReferenceScanCoder]]: byte-identical
  * streams for every scan of the scripts the codec uses and of random valid
  * scripts, over coefficient images built to reach every symbol the coder
  * writes.
  */
class ScanCoderSpec extends AnyFunSuite with PropSupport {

  private val MaxMagnitude = 1 << 11

  private val valueGen: Gen[Int] = Gen.frequency(
    4 -> Gen.choose(-3, 3),
    2 -> Gen.choose(-255, 255),
    1 -> Gen.choose(-MaxMagnitude, MaxMagnitude),
    1 -> Gen.oneOf(MaxMagnitude, -MaxMagnitude, MaxMagnitude - 1, 1 - MaxMagnitude))

  /** Non-zeros at `slots`, zeros elsewhere. */
  private def sparse(slots: Gen[Int]): Gen[Array[Int]] = for {
    n <- Gen.choose(1, 4)
    at <- Gen.listOfN(n, slots)
    vs <- Gen.listOfN(n, valueGen.suchThat(_ != 0))
  } yield {
    val zz = new Array[Int](64)
    at.zip(vs).foreach { case (k, v) => zz(k) = v }
    zz
  }

  private val blockGen: Gen[Array[Int]] = Gen.frequency(
    2 -> Gen.const(new Array[Int](64)),                          // all zero: EOB only
    3 -> sparse(Gen.choose(0, 63)),                              // runs past 15: ZRLs
    2 -> sparse(Gen.oneOf(0, 5, 6, 63)),                         // the bands' first and last slots
    3 -> Gen.containerOfN[Array, Int](64, Gen.frequency(2 -> Gen.const(0), 3 -> valueGen))) // dense

  private val coefImageGen: Gen[CoefImage] = for {
    w <- Gen.oneOf(16, 32)
    h <- Gen.oneOf(16, 32)
    nLuma = (w / 8) * (h / 8)
    nChroma = (w / 16) * (h / 16)
    y <- Gen.containerOfN[Array, Array[Int]](nLuma, blockGen)
    cb <- Gen.containerOfN[Array, Array[Int]](nChroma, blockGen)
    cr <- Gen.containerOfN[Array, Array[Int]](nChroma, blockGen)
  } yield CoefImage(w, h, Array(y, cb, cr))

  /** A first pass of `[ss, se]` at `al0`, then refinements down to `alEnd`. */
  private def passes(components: Seq[Int], ss: Int, se: Int, al0: Int, alEnd: Int): Vector[ScanSpec] =
    ScanSpec(components, ss, se, 0, al0) +: (al0 - 1 to alEnd by -1).map(al =>
      ScanSpec(components, ss, se, al + 1, al)).toVector

  private def depthsGen: Gen[(Int, Int)] = for {
    al0 <- Gen.choose(0, 3)
    alEnd <- Gen.choose(0, al0)
  } yield (al0, alEnd)

  /** One component's AC scans: 1..63 cut into bands, each with its own
    * successive approximation.
    */
  private def acScansGen(c: Int): Gen[Vector[ScanSpec]] = for {
    nCuts <- Gen.choose(0, 3)
    cuts <- Gen.listOfN(nCuts, Gen.choose(2, 63))
    bounds = (1 +: cuts.distinct.sorted :+ 64).distinct
    bands = bounds.zip(bounds.tail).map { case (lo, next) => (lo, next - 1) }
    depths <- Gen.listOfN(bands.length, depthsGen)
  } yield bands.zip(depths).flatMap { case ((lo, hi), (al0, alEnd)) => passes(Seq(c), lo, hi, al0, alEnd) }.toVector

  /** A random valid script: DC scans of all components together or one by
    * one, plus each component's AC scans, merged in a random order that
    * keeps every list's own order.
    */
  private val scriptGen: Gen[Vector[ScanSpec]] = for {
    dcGroups <- Gen.oneOf(Seq(Seq(0, 1, 2)), Seq(Seq(0), Seq(1), Seq(2)))
    dcDepths <- depthsGen
    ac <- Gen.sequence[Vector[Vector[ScanSpec]], Vector[ScanSpec]]((0 until 3).map(acScansGen))
    mergeSeed <- Gen.choose(Long.MinValue, Long.MaxValue)
  } yield {
    val lists = dcGroups.map(passes(_, 0, 0, dcDepths._1, dcDepths._2)) ++ ac
    val rnd = new scala.util.Random(mergeSeed)
    val cursors = Array.fill(lists.length)(0)
    val out = Vector.newBuilder[ScanSpec]
    var left = lists.map(_.length).sum
    while (left > 0) {
      val open = lists.indices.filter(i => cursors(i) < lists(i).length)
      val i = open(rnd.nextInt(open.length))
      out += lists(i)(cursors(i))
      cursors(i) += 1
      left -= 1
    }
    out.result()
  }

  private def sameStreams(ci: CoefImage, script: Seq[ScanSpec]): Boolean =
    script.forall(spec => Codec.encodeScan(ci, spec).sameElements(ReferenceScanCoder.encodeScan(ci, spec)))

  test("random scripts are valid") {
    checkProp(Prop.forAll(scriptGen) { script =>
      ScanScript.finalDepths(script, 3)
      true
    }, 200)
  }

  test("every scan of progressive10, sequential(3) and a random script equals the reference coder's stream") {
    checkProp(Prop.forAll(coefImageGen, scriptGen) { (ci, script) =>
      sameStreams(ci, ScanScript.progressive10) && sameStreams(ci, ScanScript.sequential(3)) &&
        sameStreams(ci, script)
    }, 300)
  }

  test("ZRLs, last-slot coefficients and 2^11 magnitudes code as the reference does") {
    def block(at: (Int, Int)*): Array[Int] = {
      val zz = new Array[Int](64)
      at.foreach { case (k, v) => zz(k) = v }
      zz
    }
    val luma = Array(
      new Array[Int](64),                                     // all zero
      block(0 -> MaxMagnitude, 40 -> 5),                      // a run of 39 in a full band: two ZRLs
      block(5 -> -1, 63 -> MaxMagnitude),                     // the last slot of both progressive bands
      block(1 -> -MaxMagnitude, 17 -> 3, 63 -> -2))           // a run of exactly 15, then one of 45
    val chroma = Array(block(63 -> 1))
    val ci = CoefImage(16, 16, Array(luma, chroma, chroma.map(_.map(-_))))
    for (script <- Seq(ScanScript.progressive10, ScanScript.sequential(3)); spec <- script)
      assert(Codec.encodeScan(ci, spec).sameElements(ReferenceScanCoder.encodeScan(ci, spec)), spec)
  }
}
