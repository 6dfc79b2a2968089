package repro.jpeg

import repro.imaging.PlanarImage

/** Quantized DCT coefficients for a whole image.
  *
  * `comps(c)(blockIndex)(zigzagIndex)` — component 0 is luma, 1/2 are the
  * half-resolution chroma planes. Blocks tile row-major. Storing zigzag
  * order directly makes spectral-band addressing in scans a range loop.
  */
final case class CoefImage(width: Int, height: Int, comps: Array[Array[Array[Int]]]) {
  def nComponents: Int = comps.length
}

/** JPEG-like codec: 8×8 DCT + standard quantization + progressive scans.
  *
  * Differences from real JPEG are confined to the entropy layer (fixed
  * 4+4-bit (run,size) symbols instead of Huffman tables, and per-scan
  * byte-aligned streams instead of one marker-delimited stream). Everything
  * the paper's measurements depend on — spectral selection, successive
  * approximation, quality-scaled quantization, chroma subsampling, and
  * bit-exact equivalence of full-progressive and sequential decoding — is
  * implemented faithfully.
  */
object Codec {

  // ---------------------------------------------------------------- helpers

  /** JPEG point transform for AC coefficients: sign-magnitude right shift. */
  private def pt(v: Int, al: Int): Int = if (v >= 0) v >> al else -((-v) >> al)

  /** Bit category of a value: smallest s with |v| < 2^s (0 for v == 0). */
  private def category(v: Int): Int = 32 - Integer.numberOfLeadingZeros(math.abs(v))

  /** JPEG signed value coding: positives as-is, negatives one's-complement. */
  private def writeSigned(bw: BitWriter, v: Int, s: Int): Unit =
    if (v >= 0) bw.writeBits(v, s) else bw.writeBits(v + (1 << s) - 1, s)

  private def readSigned(br: BitReader, s: Int): Int = {
    if (s == 0) 0
    else {
      val raw = br.readBits(s)
      if (raw < (1 << (s - 1))) raw - (1 << s) + 1 else raw
    }
  }

  // ------------------------------------------------------- pixels <-> coefs

  /** Forward path: level shift, per-block DCT, quality-scaled quantization. */
  def toCoefficients(img: PlanarImage, quality: Int): CoefImage = {
    val qLuma   = Quantization.luma(quality)
    val qChroma = Quantization.chroma(quality)
    val buf = new Array[Double](64)
    val f   = new Array[Double](64)
    val tmp = new Array[Double](64)
    def plane(px: Array[Int], w: Int, h: Int, q: Array[Int]): Array[Array[Int]] = {
      val bw = w / 8; val bh = h / 8
      val blocks = new Array[Array[Int]](bw * bh)
      var b = 0
      while (b < blocks.length) {
        val origin = (b / bw) * 8 * w + (b % bw) * 8
        var i = 0
        while (i < 64) {
          buf(i) = px(origin + (i >> 3) * w + (i & 7)) - 128.0
          i += 1
        }
        Dct.forward(buf, f, tmp)
        val zz = new Array[Int](64)
        var k = 0
        while (k < 64) {
          val rm = ZigZag.order(k)
          zz(k) = math.round(f(rm) / q(rm)).toInt
          k += 1
        }
        blocks(b) = zz
        b += 1
      }
      blocks
    }
    CoefImage(img.width, img.height, Array(
      plane(img.y, img.width, img.height, qLuma),
      plane(img.cb, img.chromaWidth, img.chromaHeight, qChroma),
      plane(img.cr, img.chromaWidth, img.chromaHeight, qChroma)))
  }

  /** Inverse path from (possibly partially received) coefficients.
    *
    * `depth(c)(k)` is the bit depth at which coefficient k of component c
    * was last received (`-1` = never → treated as 0). AC coefficients
    * received at depth > 0 are reconstructed at the magnitude midpoint,
    * matching how JPEG decoders render truncated progressive streams.
    *
    * A block with no non-zero AC coefficient is the constant
    * `(C00 * F00) * C00 + 128`, which is exactly what the IDCT computes for
    * it, so it is filled without one. When `depth` shows that no AC slot of
    * a component was received (every block at scan 1), only the DC slots
    * are read.
    */
  def fromCoefficients(ci: CoefImage, quality: Int, depth: Array[Array[Int]]): PlanarImage = {
    val qLuma   = Quantization.luma(quality)
    val qChroma = Quantization.chroma(quality)
    val coefRm = new Array[Double](64)
    val sp     = new Array[Double](64)
    val tmp    = new Array[Double](64)
    def plane(blocks: Array[Array[Int]], w: Int, h: Int, q: Array[Int], d: Array[Int]): Array[Int] = {
      val bw = w / 8
      val px = new Array[Int](w * h)
      // Received AC slots, in zigzag order; the others stay 0.0 in coefRm.
      val acs = (1 until 64).filter(k => d(k) >= 0).toArray
      java.util.Arrays.fill(coefRm, 0.0)
      var b = 0
      while (b < blocks.length) {
        val zz = blocks(b)
        val origin = (b / bw) * 8 * w + (b % bw) * 8
        var nonZeroAc = 0
        var j = 0
        while (j < acs.length) {
          val k = acs(j)
          val al = d(k)
          val v  = zz(k)
          val full =
            if (al == 0 || v == 0) v
            else {
              val mag = (math.abs(v) << al) + (1 << (al - 1))
              if (v > 0) mag else -mag
            }
          nonZeroAc |= full
          val rm = ZigZag.order(k)
          coefRm(rm) = full.toDouble * q(rm)
          j += 1
        }
        // DC: two's-complement shift semantics.
        val dc = if (d(0) < 0) 0 else zz(0) << d(0)
        coefRm(0) = dc.toDouble * q(0)
        if (nonZeroAc == 0) {
          val p = PlanarImage.clamp255((Dct.dcBasis * coefRm(0)) * Dct.dcBasis + 128.0)
          var r = 0
          while (r < 8) {
            val row = origin + r * w
            java.util.Arrays.fill(px, row, row + 8, p)
            r += 1
          }
        } else {
          Dct.inverse(coefRm, sp, tmp)
          var i = 0
          while (i < 64) {
            px(origin + (i >> 3) * w + (i & 7)) = PlanarImage.clamp255(sp(i) + 128.0)
            i += 1
          }
        }
        b += 1
      }
      px
    }
    PlanarImage(ci.width, ci.height,
      plane(ci.comps(0), ci.width, ci.height, qLuma, depth(0)),
      plane(ci.comps(1), ci.width / 2, ci.height / 2, qChroma, depth(1)),
      plane(ci.comps(2), ci.width / 2, ci.height / 2, qChroma, depth(2)))
  }

  // ------------------------------------------------------------- scan coder

  /** Entropy-encode one scan of `ci` into its own byte-aligned stream. */
  def encodeScan(ci: CoefImage, spec: ScanSpec): Array[Byte] = {
    val bw = new BitWriter()
    for (c <- spec.components) {
      val blocks = ci.comps(c)
      if (spec.coversDc && !spec.isRefinement) {
        // DC first pass: diff-coded arithmetic-shifted values.
        var prev = 0
        var b = 0
        while (b < blocks.length) {
          val v = blocks(b)(0) >> spec.al
          val diff = v - prev
          prev = v
          val s = category(diff)
          bw.writeBits(s, 4)
          writeSigned(bw, diff, s)
          b += 1
        }
      } else if (spec.coversDc && spec.isRefinement) {
        var b = 0
        while (b < blocks.length) {
          bw.writeBit((blocks(b)(0) >> spec.al) & 1)
          b += 1
        }
      }
      val acStart = math.max(1, spec.ss)
      if (spec.se >= acStart) {
        if (!spec.isRefinement) {
          // AC first pass: (run, size) symbols + signed value bits, EOB/ZRL.
          var b = 0
          while (b < blocks.length) {
            val zz = blocks(b)
            var run = 0
            var k = acStart
            while (k <= spec.se) {
              val v = pt(zz(k), spec.al)
              if (v == 0) run += 1
              else {
                while (run > 15) { bw.writeBits(0xf0, 8); run -= 16 } // ZRL
                val s = category(v)
                bw.writeBits((run << 4) | s, 8)
                writeSigned(bw, v, s)
                run = 0
              }
              k += 1
            }
            if (run > 0) bw.writeBits(0, 8) // EOB
            b += 1
          }
        } else {
          // AC refinement: one correction bit per already-significant
          // coefficient, then an explicit list of newly-significant
          // positions (6-bit count, 6-bit position, sign bit). All-zero
          // bands cost 6 bits per block — like JPEG's EOB runs, this keeps
          // refinement scans proportional to content, not band width.
          var b = 0
          while (b < blocks.length) {
            val zz = blocks(b)
            var k = acStart
            var nNew = 0
            while (k <= spec.se) {
              val prevMag = math.abs(zz(k)) >> spec.ah
              val newMag  = math.abs(zz(k)) >> spec.al
              if (prevMag != 0) bw.writeBit(newMag & 1)
              else if (newMag != 0) nNew += 1
              k += 1
            }
            bw.writeBits(nNew, 6)
            k = acStart
            while (k <= spec.se) {
              val prevMag = math.abs(zz(k)) >> spec.ah
              val newMag  = math.abs(zz(k)) >> spec.al
              if (prevMag == 0 && newMag != 0) {
                bw.writeBits(k, 6)
                bw.writeBit(if (zz(k) > 0) 1 else 0)
              }
              k += 1
            }
            b += 1
          }
        }
      }
    }
    bw.toBytes
  }

  /** Encode all scans of a script; element i is the stream of scan i+1. */
  def encodeScript(ci: CoefImage, script: Seq[ScanSpec]): Vector[Array[Byte]] = {
    ScanScript.finalDepths(script, ci.nComponents) // validates ordering
    script.iterator.map(encodeScan(ci, _)).toVector
  }

  /** Decode the first `scans.length` scans of `script` back into received
    * coefficient values plus the per-coefficient bit depth reached.
    */
  def decodeScans(
      scans: Seq[Array[Byte]],
      script: Seq[ScanSpec],
      width: Int,
      height: Int): (CoefImage, Array[Array[Int]]) = {
    require(scans.length <= script.length,
      s"${scans.length} scan payloads but script has ${script.length}")
    val nc = 3
    def nBlocks(c: Int): Int =
      if (c == 0) (width / 8) * (height / 8) else (width / 16) * (height / 16)
    val comps = Array.tabulate(nc)(c => Array.fill(nBlocks(c))(new Array[Int](64)))
    val depth = Array.fill(nc, 64)(-1)

    for (((bytes, spec), si) <- scans.zip(script).zipWithIndex) {
      val br = new BitReader(bytes)
      def corrupt(c: Int, b: Int, what: String) = new IllegalArgumentException(
        s"corrupt scan $si (band [${spec.ss}, ${spec.se}]), component $c, block $b: $what")
      for (c <- spec.components) {
        val blocks = comps(c)
        if (spec.coversDc && !spec.isRefinement) {
          var prev = 0
          var b = 0
          while (b < blocks.length) {
            val s = br.readBits(4)
            val diff = readSigned(br, s)
            prev += diff
            blocks(b)(0) = prev
            b += 1
          }
        } else if (spec.coversDc && spec.isRefinement) {
          var b = 0
          while (b < blocks.length) {
            blocks(b)(0) = (blocks(b)(0) << 1) | br.readBit()
            b += 1
          }
        }
        val acStart = math.max(1, spec.ss)
        if (spec.se >= acStart) {
          if (!spec.isRefinement) {
            var b = 0
            while (b < blocks.length) {
              val zz = blocks(b)
              var k = acStart
              var done = false
              while (k <= spec.se && !done) {
                val rs  = br.readBits(8)
                val run = rs >>> 4
                val s   = rs & 15
                if (run == 0 && s == 0) done = true          // EOB
                else {
                  // A valid ZRL is followed by a coefficient, so it too ends inside the band.
                  val zrl = run == 15 && s == 0
                  k += (if (zrl) 16 else run)
                  if (k > spec.se) throw corrupt(c, b, s"run to position $k")
                  if (!zrl) {
                    zz(k) = readSigned(br, s)
                    k += 1
                  }
                }
              }
              b += 1
            }
          } else {
            var b = 0
            while (b < blocks.length) {
              val zz = blocks(b)
              var k = acStart
              while (k <= spec.se) {
                if (zz(k) != 0) {
                  val bit = br.readBit()
                  val mag = (math.abs(zz(k)) << 1) | bit
                  zz(k) = if (zz(k) > 0) mag else -mag
                }
                k += 1
              }
              val nNew = br.readBits(6)
              if (nNew > spec.se - acStart + 1) throw corrupt(c, b, s"$nNew new coefficients")
              var i = 0
              while (i < nNew) {
                val pos = br.readBits(6)
                if (pos < acStart || pos > spec.se) throw corrupt(c, b, s"new coefficient at position $pos")
                zz(pos) = if (br.readBit() == 1) 1 else -1
                i += 1
              }
              b += 1
            }
          }
        }
        var k = spec.ss
        while (k <= spec.se) { depth(c)(k) = spec.al; k += 1 }
      }
    }
    (CoefImage(width, height, comps), depth)
  }

  // ---------------------------------------------------------- public facade

  /** Progressive encode: one byte stream per scan of the 10-scan script. */
  def encodeProgressive(img: PlanarImage, quality: Int): Vector[Array[Byte]] =
    encodeScript(toCoefficients(img, quality), ScanScript.progressive10)

  /** Decode the first `scans.length` scans — the PCR "read up to scan group
    * g" path. Fewer scans → lower-fidelity reconstruction of all blocks.
    */
  def decodeProgressive(scans: Seq[Array[Byte]], quality: Int, width: Int, height: Int): PlanarImage =
    decode(scans, ScanScript.progressive10, quality, width, height)

  /** Baseline sequential encode: a single framed byte payload. */
  def encodeSequential(img: PlanarImage, quality: Int): Array[Byte] = {
    val scans = encodeScript(toCoefficients(img, quality), ScanScript.sequential(3))
    frame(scans)
  }

  /** Decode a baseline sequential payload produced by [[encodeSequential]]. */
  def decodeSequential(bytes: Array[Byte], quality: Int, width: Int, height: Int): PlanarImage =
    decode(unframe(bytes), ScanScript.sequential(3), quality, width, height)

  private def decode(
      scans: Seq[Array[Byte]],
      script: Seq[ScanSpec],
      quality: Int,
      width: Int,
      height: Int): PlanarImage = {
    val (ci, depth) = decodeScans(scans, script, width, height)
    fromCoefficients(ci, quality, depth)
  }

  /** Pack per-scan streams into one payload: [n][len_i][bytes_i]…. */
  def frame(scans: Seq[Array[Byte]]): Array[Byte] = {
    val total = 4 + scans.map(s => 4 + s.length).sum
    val bb = java.nio.ByteBuffer.allocate(total)
    bb.putInt(scans.length)
    scans.foreach { s => bb.putInt(s.length); bb.put(s) }
    bb.array()
  }

  /** Inverse of [[frame]]. */
  def unframe(bytes: Array[Byte]): Vector[Array[Byte]] = {
    val bb = java.nio.ByteBuffer.wrap(bytes)
    val n = bb.getInt
    require(n >= 0 && n <= 64, s"corrupt frame header: $n scans")
    Vector.fill(n) {
      val len = bb.getInt
      val a = new Array[Byte](len)
      bb.get(a)
      a
    }
  }
}
