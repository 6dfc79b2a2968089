package repro.jpeg

import scala.util.{Failure, Try}

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}

import repro.PropSupport
import repro.imaging.{PlanarImage, Rng, SyntheticImages}

class CodecSpec extends AnyFunSuite with PropSupport {

  private def randomImage(seed: Long, w: Int = 32, h: Int = 32): PlanarImage = {
    val rng = new Rng(seed)
    PlanarImage(w, h,
      Array.fill(w * h)((rng.nextDouble() * 256).toInt.min(255)),
      Array.fill(w * h / 4)((rng.nextDouble() * 256).toInt.min(255)),
      Array.fill(w * h / 4)((rng.nextDouble() * 256).toInt.min(255)))
  }

  private def syntheticImage(id: Long): PlanarImage =
    SyntheticImages.generate(SyntheticImages.imagenet, id)

  // ---------------------------------------------------------------- exact paths

  test("sequential encode/decode round-trips the quantized image exactly") {
    // The codec is lossy only through quantization: re-encoding a decoded
    // image at quality 100 with all-ones tables must be near-lossless, and
    // decode(encode(x)) must equal the quantization-only reconstruction.
    for (seed <- 1L to 3L) {
      val img = randomImage(seed)
      val ci = Codec.toCoefficients(img, 90)
      val direct = Codec.fromCoefficients(ci, 90, Array.fill(3, 64)(0))
      val decoded = Codec.decodeSequential(Codec.encodeSequential(img, 90), 90, 32, 32)
      assert(decoded.y.sameElements(direct.y))
      assert(decoded.cb.sameElements(direct.cb))
      assert(decoded.cr.sameElements(direct.cr))
    }
  }

  test("full progressive decode is bit-identical to sequential decode") {
    // The paper (§3): "Reading all scan groups … decodes to identical bytes
    // as the conventional JPEG format."
    for (seed <- 1L to 3L; quality <- Seq(50, 75, 92, 100)) {
      val img = randomImage(seed)
      val scans = Codec.encodeProgressive(img, quality)
      val prog = Codec.decodeProgressive(scans, quality, img.width, img.height)
      val seq = Codec.decodeSequential(Codec.encodeSequential(img, quality), quality,
        img.width, img.height)
      assert(prog.y.sameElements(seq.y), s"luma mismatch q=$quality seed=$seed")
      assert(prog.cb.sameElements(seq.cb), s"cb mismatch q=$quality seed=$seed")
      assert(prog.cr.sameElements(seq.cr), s"cr mismatch q=$quality seed=$seed")
    }
  }

  test("decoded coefficients equal encoded coefficients at full fidelity") {
    checkProp(Prop.forAll(Gen.choose(0L, 10000L)) { seed =>
      val img = randomImage(seed, 16, 16)
      val ci = Codec.toCoefficients(img, 85)
      val scans = Codec.encodeScript(ci, ScanScript.progressive10)
      val (ci2, depth) = Codec.decodeScans(scans, ScanScript.progressive10, 16, 16)
      depth.forall(_.forall(_ == 0)) &&
        (0 until 3).forall { c =>
          ci.comps(c).indices.forall(b => ci.comps(c)(b).sameElements(ci2.comps(c)(b)))
        }
    }, n = 25)
  }

  // ----------------------------------------------------------- prefix behaviour

  test("every scan prefix decodes without error and improves or holds PSNR") {
    val img = syntheticImage(7)
    val scans = Codec.encodeProgressive(img, 92)
    val ref = Codec.decodeProgressive(scans, 92, img.width, img.height)
    var lastPsnr = 0.0
    for (g <- 1 to 10) {
      val dec = Codec.decodeProgressive(scans.take(g), 92, img.width, img.height)
      val p = dec.psnrY(ref)
      assert(p >= lastPsnr - 0.75, s"PSNR regressed at scan $g: $p vs $lastPsnr")
      lastPsnr = math.max(lastPsnr, p)
    }
    assert(lastPsnr.isInfinity, "scan 10 should reproduce the full-fidelity image")
  }

  test("scan 1 (DC only) reconstructs a blocky but unbiased approximation") {
    val img = syntheticImage(3)
    val scans = Codec.encodeProgressive(img, 92)
    val dc = Codec.decodeProgressive(scans.take(1), 92, img.width, img.height)
    val meanOrig = img.y.map(_.toDouble).sum / img.y.length
    val meanDc = dc.y.map(_.toDouble).sum / dc.y.length
    assert(math.abs(meanOrig - meanDc) < 8.0, s"mean drifted: $meanOrig vs $meanDc")
    assert(dc.psnrY(img) > 10.0)
  }

  test("later scans strictly add information on natural-ish images") {
    val img = syntheticImage(11)
    val scans = Codec.encodeProgressive(img, 92)
    val p1 = Codec.decodeProgressive(scans.take(1), 92, img.width, img.height).psnrY(img)
    val p5 = Codec.decodeProgressive(scans.take(5), 92, img.width, img.height).psnrY(img)
    val p10 = Codec.decodeProgressive(scans, 92, img.width, img.height).psnrY(img)
    assert(p1 < p5 && p5 < p10, s"psnr not increasing: $p1, $p5, $p10")
  }

  // ------------------------------------------------------------------ size laws

  test("progressive scan streams are non-empty and sizes are plausible") {
    val img = syntheticImage(5)
    val scans = Codec.encodeProgressive(img, 92)
    assert(scans.length == 10)
    scans.foreach(s => assert(s.nonEmpty))
    val total = scans.map(_.length).sum
    assert(total > 200 && total < 64 * 64 * 3, s"implausible total $total")
  }

  test("higher quality yields larger progressive payloads") {
    val img = syntheticImage(13)
    val sizes = Seq(50, 75, 95).map(q => Codec.encodeProgressive(img, q).map(_.length).sum)
    assert(sizes(0) < sizes(1) && sizes(1) < sizes(2), s"sizes not monotone: $sizes")
  }

  test("progressive total size is within 2× of the sequential payload") {
    // Real progressive JPEG is usually slightly smaller; our fixed-length
    // symbol coder is close enough that the layouts stay comparable.
    for (seed <- 1L to 3L) {
      val img = syntheticImage(seed)
      val prog = Codec.encodeProgressive(img, 92).map(_.length).sum
      val seq = Codec.encodeSequential(img, 92).length
      val ratio = prog.toDouble / seq
      assert(ratio > 0.5 && ratio < 2.0, s"ratio $ratio out of bounds")
    }
  }

  test("frame/unframe round-trips") {
    val chunksGen = Gen.choose(0, 64).flatMap(n =>
      Gen.listOfN(n, Gen.listOf(Gen.choose(-128, 127).map(_.toByte))))
    checkProp(Prop.forAll(chunksGen) { chunks =>
      val arrays = chunks.map(_.toArray)
      val back = Codec.unframe(Codec.frame(arrays))
      back.length == arrays.length &&
        back.zip(arrays).forall { case (a, b) => a.sameElements(b) }
    }, n = 50)
  }

  test("unframe rejects a scan count or length that does not fit the frame") {
    val framed = Codec.frame(Seq(Array[Byte](1, 2, 3), Array[Byte](4)))
    def withInt(at: Int, v: Int): Array[Byte] = {
      val b = framed.clone()
      java.nio.ByteBuffer.wrap(b).putInt(at, v)
      b
    }
    def rejected(bytes: Array[Byte], field: String): Unit = {
      val e = intercept[IllegalArgumentException](Codec.unframe(bytes))
      assert(e.getMessage.contains(field), e.getMessage)
    }
    for (n <- Seq(-1, 4, 65, Int.MaxValue)) rejected(withInt(0, n), "scan count")
    for (len <- Seq(-1, 5, 8, Int.MaxValue)) rejected(withInt(4, len), "scan 0 length")
    for (len <- Seq(-1, 2, Int.MaxValue)) rejected(withInt(11, len), "scan 1 length")
    rejected(Array[Byte](0, 0), "scan count")
    rejected(framed.dropRight(1), "scan 1 length")
  }

  test("flat images compress to almost nothing") {
    val flat = PlanarImage.flat(32, 32)
    val scans = Codec.encodeProgressive(flat, 92)
    assert(scans.map(_.length).sum < 200)
    val dec = Codec.decodeProgressive(scans, 92, 32, 32)
    assert(dec.y.forall(_ == 128))
  }

  test("decode rejects more scan payloads than the script has") {
    val img = randomImage(1, 16, 16)
    val scans = Codec.encodeProgressive(img, 80)
    assertThrows[IllegalArgumentException](
      Codec.decodeProgressive(scans :+ Array[Byte](0), 80, 16, 16))
  }

  // ----------------------------------------- reconstruction against reference

  /** The reconstruction before the sparse IDCT: dequantize all 64 slots of
    * every block and run the dense [[ReferenceDct]].
    */
  private def referenceFromCoefficients(
      ci: CoefImage, quality: Int, depth: Array[Array[Int]]): PlanarImage = {
    def plane(blocks: Array[Array[Int]], w: Int, h: Int, q: Array[Int], d: Array[Int]): Array[Int] = {
      val bw = w / 8
      val px = new Array[Int](w * h)
      for ((zz, b) <- blocks.zipWithIndex) {
        val coefRm = new Array[Double](64)
        for (k <- 0 until 64) {
          val al = d(k); val v = zz(k)
          val full =
            if (al <= 0) { if (al < 0) 0 else v }
            else if (k == 0) v << al
            else if (v == 0) 0
            else {
              val mag = (math.abs(v) << al) + (1 << (al - 1))
              if (v > 0) mag else -mag
            }
          coefRm(ZigZag.order(k)) = full.toDouble * q(ZigZag.order(k))
        }
        val sp = ReferenceDct.inverse(coefRm)
        for (i <- 0 until 64)
          px(((b / bw) * 8 + i / 8) * w + (b % bw) * 8 + i % 8) = PlanarImage.clamp255(sp(i) + 128.0)
      }
      px
    }
    PlanarImage(ci.width, ci.height,
      plane(ci.comps(0), ci.width, ci.height, Quantization.luma(quality), depth(0)),
      plane(ci.comps(1), ci.width / 2, ci.height / 2, Quantization.chroma(quality), depth(1)),
      plane(ci.comps(2), ci.width / 2, ci.height / 2, Quantization.chroma(quality), depth(2)))
  }

  private def samePixels(a: PlanarImage, b: PlanarImage): Boolean =
    a.y.sameElements(b.y) && a.cb.sameElements(b.cb) && a.cr.sameElements(b.cr)

  test("fromCoefficients equals the dense reference reconstruction at every scan prefix") {
    val gen = for {
      seed <- Gen.choose(0L, 10000L)
      quality <- Gen.oneOf(50, 75, 92, 100)
      g <- Gen.choose(0, 10)
    } yield (seed, quality, g)
    checkProp(Prop.forAll(gen) { case (seed, quality, g) =>
      val img = if (seed % 2 == 0) randomImage(seed) else syntheticImage(seed)
      val scans = Codec.encodeProgressive(img, quality).take(g)
      val (ci, depth) = Codec.decodeScans(scans, ScanScript.progressive10, img.width, img.height)
      samePixels(Codec.fromCoefficients(ci, quality, depth),
        referenceFromCoefficients(ci, quality, depth))
    }, 60)
  }

  test("DC-only blocks equal the dense reference for every DC value the quantizer emits") {
    // These blocks take the constant fill, never the IDCT.
    for (quality <- Seq(50, 92, 100)) {
      val q00 = math.min(Quantization.luma(quality)(0), Quantization.chroma(quality)(0))
      val dcs = (math.round(-1024.0 / q00).toInt to math.round(1016.0 / q00).toInt).toArray
      // Luma has 4× the chroma blocks; every chroma block gets a value too.
      val h = 16 * dcs.length
      def blocks(n: Int) = Array.tabulate(n)(b => Array.tabulate(64)(k => if (k == 0) dcs(b % dcs.length) else 0))
      val ci = CoefImage(16, h, Array(blocks(4 * dcs.length), blocks(dcs.length), blocks(dcs.length)))
      // No AC slot received (scan 1), and AC received but all zero.
      for (acDepth <- Seq(-1, 0)) {
        val depth = Array.fill(3, 64)(acDepth)
        depth.foreach(_(0) = 0)
        assert(samePixels(Codec.fromCoefficients(ci, quality, depth),
          referenceFromCoefficients(ci, quality, depth)), s"q=$quality acDepth=$acDepth")
      }
    }
  }

  // ------------------------------------------------------- hostile streams

  /** One scan's bytes, written as (value, bit count) fields. */
  private def stream(fields: (Int, Int)*): Array[Byte] = {
    val bw = new BitWriter()
    fields.foreach { case (v, n) => bw.writeBits(v, n) }
    bw.toBytes
  }

  /** Decodes `fields` as the only scan of a 16×16 image (four luma blocks). */
  private def decodeLuma(spec: ScanSpec, fields: (Int, Int)*): Array[Array[Int]] =
    Codec.decodeScans(Seq(stream(fields: _*)), Seq(spec), 16, 16)._1.comps(0)

  private def rejected(spec: ScanSpec, what: String, fields: (Int, Int)*): Unit = {
    val e = intercept[IllegalArgumentException](decodeLuma(spec, fields: _*))
    assert(e.getMessage.contains(s"scan 0 (band [${spec.ss}, ${spec.se}]), component 0, block 0: $what"),
      e.getMessage)
  }

  private val eob = (0, 8)

  test("a first-pass run that leaves the band is rejected, one that ends on its last slot is not") {
    val lowAc = ScanSpec(Seq(0), 1, 5, 0, 2)
    val last = decodeLuma(lowAc, (0x41, 8), (1, 1), eob, eob, eob) // run 4, size 1 → slot 5
    assert(last(0).toSeq == Seq(0, 0, 0, 0, 0, 1) ++ Seq.fill(58)(0))
    rejected(lowAc, "run to position 6", (0x51, 8), (1, 1))
    // Past slot 63 this used to index outside the block.
    val fullAc = ScanSpec(Seq(0), 1, 63, 0, 1)
    rejected(fullAc, "run to position 64", (0xf0, 8), (0xf0, 8), (0xf0, 8), (0xf1, 8), (1, 1))
  }

  test("a ZRL that leaves the band is rejected") {
    rejected(ScanSpec(Seq(0), 1, 5, 0, 2), "run to position 17", (0xf0, 8))
  }

  test("a refinement may not place a coefficient outside its band, DC included") {
    val fullAc = ScanSpec(Seq(0), 1, 63, 1, 0)
    rejected(fullAc, "new coefficient at position 0", (1, 6), (0, 6), (1, 1))
    val lowAc = ScanSpec(Seq(0), 1, 5, 1, 0)
    rejected(lowAc, "new coefficient at position 6", (1, 6), (6, 6), (1, 1))
    val filled = decodeLuma(lowAc, Seq((5, 6)) ++ (1 to 5).flatMap(k => Seq((k, 6), (k % 2, 1))) ++
      Seq.fill(3)((0, 6)): _*)
    assert(filled(0).toSeq.take(7) == Seq(0, 1, -1, 1, -1, 1, 0))
  }

  test("a refinement announcing more new coefficients than its band holds is rejected") {
    rejected(ScanSpec(Seq(0), 1, 5, 1, 0), "6 new coefficients", (6, 6))
    rejected(ScanSpec(Seq(0), 6, 63, 1, 0), "59 new coefficients", (59, 6))
  }

  test("a decode that reads past the end of its scan is rejected, naming the scan") {
    // Four DC blocks read as size 15 from the 1s past the end: 4 × 19 bits.
    val e = intercept[IllegalArgumentException](decodeLuma(ScanSpec(Seq(0), 0, 0, 0, 1)))
    assert(e.getMessage == "corrupt scan 0 (band [0, 0]): read 76 bits of a 0-byte stream", e.getMessage)
  }

  test("dropping the last byte of any one scan of a valid image is rejected") {
    // The encoder writes no byte without a coded bit, so a valid decode
    // consumes a bit of every scan's last byte; without it the decode
    // reads padding past the new end or fails a bounds check first.
    val gen = for {
      seed <- Gen.choose(0L, 10000L)
      quality <- Gen.oneOf(50, 75, 92, 100)
      si <- Gen.choose(0, 9)
    } yield (seed, quality, si)
    checkProp(Prop.forAll(gen) { case (seed, quality, si) =>
      val img = if (seed % 2 == 0) randomImage(seed) else syntheticImage(seed)
      val scans = Codec.encodeProgressive(img, quality)
      val cut = scans.updated(si, scans(si).dropRight(1))
      Try(Codec.decodeScans(cut, ScanScript.progressive10, img.width, img.height)) match {
        case Failure(_: IllegalArgumentException) => true
        case _ => false
      }
    }, 60)
  }

  // ------------------------------------------------ component-selective decode

  test("a luma-only decode equals the full decode in luma and leaves chroma flat at every scan prefix") {
    val gen = for {
      spec <- Gen.oneOf(SyntheticImages.all)
      id <- Gen.choose(0L, 10000L)
      quality <- Gen.oneOf(50, 75, 92, 100)
      g <- Gen.choose(0, 10)
    } yield (spec, id, quality, g)
    checkProp(Prop.forAll(gen) { case (spec, id, quality, g) =>
      val img = SyntheticImages.generate(spec, id)
      val scans = Codec.encodeProgressive(img, quality).take(g)
      val (full, fullDepth) = Codec.decodeScans(scans, ScanScript.progressive10, img.width, img.height)
      val (luma, lumaDepth) =
        Codec.decodeScans(scans, ScanScript.progressive10, img.width, img.height, components = Seq(0))
      val fullImg = Codec.fromCoefficients(full, quality, fullDepth)
      val lumaImg = Codec.fromCoefficients(luma, quality, lumaDepth)
      full.comps(0).indices.forall(b => full.comps(0)(b).sameElements(luma.comps(0)(b))) &&
        lumaDepth(0).sameElements(fullDepth(0)) &&
        lumaDepth.drop(1).forall(_.forall(_ == -1)) &&
        lumaImg.y.sameElements(fullImg.y) &&
        lumaImg.cb.forall(_ == 128) && lumaImg.cr.forall(_ == 128)
    }, 40)
  }
}
