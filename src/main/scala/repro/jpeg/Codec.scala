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

  /** Bit category of a value: smallest s with |v| < 2^s (0 for v == 0). */
  private def category(v: Int): Int = 32 - Integer.numberOfLeadingZeros(math.abs(v))

  /** JPEG signed value coding of `v` in `s = category(v)` bits: positives
    * as-is, negatives one's-complement (`v - 1` in the low `s` bits).
    */
  private def valueBits(v: Int, s: Int): Int = (v + (v >> 31)) & ((1 << s) - 1)

  /** The value of `s ≥ 1` raw bits in that coding. */
  private def extend(raw: Int, s: Int): Int =
    if (raw < (1 << (s - 1))) raw - (1 << s) + 1 else raw

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
      val acs = new Array[Int](63)
      var nAcs = 0
      var slot = 1
      while (slot < 64) {
        if (d(slot) >= 0) { acs(nAcs) = slot; nAcs += 1 }
        slot += 1
      }
      java.util.Arrays.fill(coefRm, 0.0)
      var b = 0
      while (b < blocks.length) {
        val zz = blocks(b)
        val origin = (b / bw) * 8 * w + (b % bw) * 8
        var nonZeroAc = 0
        var j = 0
        while (j < nAcs) {
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
    val acStart = math.max(1, spec.ss)
    for (c <- spec.components) {
      val blocks = ci.comps(c)
      if (spec.coversDc) {
        if (spec.isRefinement) encodeRefineDc(bw, blocks, spec.al) else encodeFirstDc(bw, blocks, spec.al)
      }
      if (spec.se >= acStart) {
        if (spec.isRefinement) encodeRefineAc(bw, blocks, acStart, spec.se, spec.ah, spec.al)
        else encodeFirstAc(bw, blocks, acStart, spec.se, spec.al)
      }
    }
    bw.toBytes
  }

  // Each AC block loop below makes one pass over the band that builds a
  // 64-bit mask of the slots it must code, then walks the set bits with
  // numberOfTrailingZeros, as libjpeg's jcphuff.c walks its zero bitmaps.
  // A symbol and its value bits go out in one write.

  /** DC first pass: a 4-bit size, then that many bits of the difference of
    * the arithmetic-shifted values.
    */
  private def encodeFirstDc(bw: BitWriter, blocks: Array[Array[Int]], al: Int): Unit = {
    var prev = 0
    var b = 0
    while (b < blocks.length) {
      val v = blocks(b)(0) >> al
      val diff = v - prev
      prev = v
      val s = category(diff)
      bw.writeBits((s << s) | valueBits(diff, s), 4 + s)
      b += 1
    }
  }

  /** DC refinement: one bit per block. */
  private def encodeRefineDc(bw: BitWriter, blocks: Array[Array[Int]], al: Int): Unit = {
    var b = 0
    while (b < blocks.length) {
      bw.writeBit(blocks(b)(0) >> al)
      b += 1
    }
  }

  /** AC first pass: an 8-bit (run, size) symbol and `size` value bits per
    * non-zero, a ZRL (0xf0) per 16 zeros of a longer run, and an EOB (0x00)
    * when the band ends in zeros.
    */
  private def encodeFirstAc(bw: BitWriter, blocks: Array[Array[Int]], ss: Int, se: Int, al: Int): Unit = {
    val v = new Array[Int](64)
    var b = 0
    while (b < blocks.length) {
      val zz = blocks(b)
      var nonZero = 0L
      var k = ss
      while (k <= se) {
        val x = zz(k)
        val sign = x >> 31
        val p = ((((x ^ sign) - sign) >> al) ^ sign) - sign // sign-magnitude shift
        v(k) = p
        nonZero |= ((p | -p) >>> 31).toLong << k
        k += 1
      }
      var next = ss // first slot not yet coded
      while (nonZero != 0L) {
        val k = java.lang.Long.numberOfTrailingZeros(nonZero)
        var run = k - next
        while (run > 15) { bw.writeBits(0xf0, 8); run -= 16 } // ZRL
        val p = v(k)
        val s = category(p)
        bw.writeBits((((run << 4) | s) << s) | valueBits(p, s), 8 + s)
        next = k + 1
        nonZero &= nonZero - 1
      }
      if (next <= se) bw.writeBits(0, 8) // EOB
      b += 1
    }
  }

  /** AC refinement: one correction bit per already-significant slot, then
    * an explicit list of newly-significant positions (6-bit count, 6-bit
    * position, sign bit). All-zero bands cost 6 bits per block — like
    * JPEG's EOB runs, this keeps refinement scans proportional to content,
    * not band width.
    */
  private def encodeRefineAc(
      bw: BitWriter, blocks: Array[Array[Int]], ss: Int, se: Int, ah: Int, al: Int): Unit = {
    var b = 0
    while (b < blocks.length) {
      val zz = blocks(b)
      var corrections = 0L // at most se - ss + 1 ≤ 63 bits, first slot first
      var nCorrections = 0
      var fresh = 0L
      var k = ss
      while (k <= se) {
        val a = math.abs(zz(k))
        if ((a >> ah) != 0) {
          corrections = (corrections << 1) | ((a >> al) & 1)
          nCorrections += 1
        } else fresh |= ((a >> al).toLong & 1L) << k // ah = al + 1, so a >> al is 0 or 1 here
        k += 1
      }
      bw.writeLong(corrections, nCorrections)
      bw.writeBits(java.lang.Long.bitCount(fresh), 6)
      while (fresh != 0L) {
        val k = java.lang.Long.numberOfTrailingZeros(fresh)
        bw.writeBits((k << 1) | (~zz(k) >>> 31), 7)
        fresh &= fresh - 1
      }
      b += 1
    }
  }

  /** Encode all scans of a script; element i is the stream of scan i+1. */
  def encodeScript(ci: CoefImage, script: Seq[ScanSpec]): Vector[Array[Byte]] = {
    ScanScript.finalDepths(script, ci.nComponents) // validates ordering
    script.iterator.map(encodeScan(ci, _)).toVector
  }

  /** Every component of an image: luma, then the two chroma planes. */
  val AllComponents: Seq[Int] = Seq(0, 1, 2)

  /** Decode the first `scans.length` scans of `script` back into received
    * coefficient values plus the per-coefficient bit depth reached.
    *
    * Only `components` are decoded. A scan that holds none of them is
    * skipped, and a scan of several components is read only up to the end
    * of the last wanted one's blocks: a scan codes its components one after
    * another. Every other component keeps depth −1, which
    * [[fromCoefficients]] renders as flat 128. A scan whose decode reads
    * past the end of its stream is rejected.
    */
  def decodeScans(
      scans: Seq[Array[Byte]],
      script: Seq[ScanSpec],
      width: Int,
      height: Int,
      components: Seq[Int] = AllComponents): (CoefImage, Array[Array[Int]]) = {
    require(scans.length <= script.length,
      s"${scans.length} scan payloads but script has ${script.length}")
    val nc = 3
    def nBlocks(c: Int): Int =
      if (c == 0) (width / 8) * (height / 8) else (width / 16) * (height / 16)
    val comps = Array.tabulate(nc)(c => Array.fill(nBlocks(c))(new Array[Int](64)))
    val depth = Array.fill(nc, 64)(-1)

    var si = 0
    val it = scans.iterator
    while (it.hasNext) {
      val bytes = it.next()
      val spec = script(si)
      val nRead = spec.components.lastIndexWhere(components.contains) + 1
      if (nRead > 0) {
        val br = new BitReader(bytes)
        val acStart = math.max(1, spec.ss)
        var i = 0
        while (i < nRead) {
          val c = spec.components(i)
          if (spec.coversDc) {
            if (spec.isRefinement) refineDc(br, comps(c)) else firstDc(br, comps(c))
          }
          if (spec.se >= acStart) {
            if (spec.isRefinement) refineAc(br, comps(c), spec, si, c) else firstAc(br, comps(c), spec, si, c)
          }
          i += 1
        }
        if (br.bitsRead > 8L * bytes.length) throw new IllegalArgumentException(
          s"corrupt scan $si (band [${spec.ss}, ${spec.se}]): read ${br.bitsRead} bits of a ${bytes.length}-byte stream")
        for (c <- spec.components if components.contains(c)) {
          var k = spec.ss
          while (k <= spec.se) { depth(c)(k) = spec.al; k += 1 }
        }
      }
      si += 1
    }
    (CoefImage(width, height, comps), depth)
  }

  // Each block loop below keeps `br`'s bit window (`win`, its `nWin` unread
  // bits MSB first, 0s below) and its consumed count `used` in locals, and
  // writes them back once at the end, like libjpeg's BITREAD_LOAD_STATE /
  // BITREAD_SAVE_STATE. A symbol is one peek after one refill check.

  private def corrupt(spec: ScanSpec, si: Int, c: Int, b: Int, what: String) = new IllegalArgumentException(
    s"corrupt scan $si (band [${spec.ss}, ${spec.se}]), component $c, block $b: $what")

  /** DC first pass: a 4-bit size, then that many bits of the difference. */
  private def firstDc(br: BitReader, blocks: Array[Array[Int]]): Unit = {
    val bytes = br.bytes
    var win = br.window; var nWin = br.nWindow; var used = br.pos
    var prev = 0
    var b = 0
    while (b < blocks.length) {
      if (nWin < 19) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
      val s = (win >>> 60).toInt
      if (s != 0) prev += extend(((win << 4) >>> (64 - s)).toInt, s)
      blocks(b)(0) = prev
      win <<= 4 + s; nWin -= 4 + s; used += 4 + s
      b += 1
    }
    br.window = win; br.nWindow = nWin; br.pos = used
  }

  /** DC refinement: one bit per block. */
  private def refineDc(br: BitReader, blocks: Array[Array[Int]]): Unit = {
    val bytes = br.bytes
    var win = br.window; var nWin = br.nWindow; var used = br.pos
    var b = 0
    while (b < blocks.length) {
      if (nWin == 0) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
      blocks(b)(0) = (blocks(b)(0) << 1) | (win >>> 63).toInt
      win <<= 1; nWin -= 1; used += 1
      b += 1
    }
    br.window = win; br.nWindow = nWin; br.pos = used
  }

  /** AC first pass: an 8-bit (run, size) symbol, then `size` value bits. */
  private def firstAc(br: BitReader, blocks: Array[Array[Int]], spec: ScanSpec, si: Int, c: Int): Unit = {
    val bytes = br.bytes
    var win = br.window; var nWin = br.nWindow; var used = br.pos
    val se = spec.se
    val acStart = math.max(1, spec.ss)
    var b = 0
    while (b < blocks.length) {
      val zz = blocks(b)
      var k = acStart
      while (k <= se) {
        if (nWin < 23) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
        val rs = (win >>> 56).toInt
        if (rs == 0) { // EOB
          win <<= 8; nWin -= 8; used += 8
          k = se + 1
        } else {
          // A valid ZRL is followed by a coefficient, so it too ends inside the band.
          val zrl = rs == 0xf0
          val s = rs & 15
          k += (if (zrl) 16 else rs >>> 4)
          if (k > se) throw corrupt(spec, si, c, b, s"run to position $k")
          val n = if (zrl) 8 else 8 + s
          if (!zrl) {
            zz(k) = if (s == 0) 0 else extend(((win << 8) >>> (64 - s)).toInt, s)
            k += 1
          }
          win <<= n; nWin -= n; used += n
        }
      }
      b += 1
    }
    br.window = win; br.nWindow = nWin; br.pos = used
  }

  /** AC refinement: one correction bit per significant slot, then a 6-bit
    * count of new coefficients, each a 6-bit position and a sign bit.
    */
  private def refineAc(br: BitReader, blocks: Array[Array[Int]], spec: ScanSpec, si: Int, c: Int): Unit = {
    val bytes = br.bytes
    var win = br.window; var nWin = br.nWindow; var used = br.pos
    val se = spec.se
    val acStart = math.max(1, spec.ss)
    var b = 0
    while (b < blocks.length) {
      val zz = blocks(b)
      var k = acStart
      while (k <= se) {
        val v = zz(k)
        if (v != 0) {
          if (nWin == 0) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
          val mag = (math.abs(v) << 1) | (win >>> 63).toInt
          zz(k) = if (v > 0) mag else -mag
          win <<= 1; nWin -= 1; used += 1
        }
        k += 1
      }
      if (nWin < 6) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
      val nNew = (win >>> 58).toInt
      win <<= 6; nWin -= 6; used += 6
      if (nNew > se - acStart + 1) throw corrupt(spec, si, c, b, s"$nNew new coefficients")
      var i = 0
      while (i < nNew) {
        if (nWin < 7) { win = BitReader.fill(bytes, win, nWin, used); nWin += (64 - nWin) & ~7 }
        val pos = (win >>> 58).toInt
        if (pos < acStart || pos > se) throw corrupt(spec, si, c, b, s"new coefficient at position $pos")
        zz(pos) = if (((win >>> 57) & 1L) != 0) 1 else -1
        win <<= 7; nWin -= 7; used += 7
        i += 1
      }
      b += 1
    }
    br.window = win; br.nWindow = nWin; br.pos = used
  }

  // ---------------------------------------------------------- public facade

  /** Progressive encode: one byte stream per scan of the 10-scan script. */
  def encodeProgressive(img: PlanarImage, quality: Int): Vector[Array[Byte]] =
    encodeScript(toCoefficients(img, quality), ScanScript.progressive10)

  /** Decode the first `scans.length` scans — the PCR "read up to scan group
    * g" path. Fewer scans → lower-fidelity reconstruction of all blocks;
    * components not in `components` are flat 128 (see [[decodeScans]]).
    */
  def decodeProgressive(
      scans: Seq[Array[Byte]],
      quality: Int,
      width: Int,
      height: Int,
      components: Seq[Int] = AllComponents): PlanarImage =
    decode(scans, ScanScript.progressive10, quality, width, height, components)

  /** Baseline sequential encode: a single framed byte payload. */
  def encodeSequential(img: PlanarImage, quality: Int): Array[Byte] = {
    val scans = encodeScript(toCoefficients(img, quality), ScanScript.sequential(3))
    frame(scans)
  }

  /** Decode a baseline sequential payload produced by [[encodeSequential]]. */
  def decodeSequential(bytes: Array[Byte], quality: Int, width: Int, height: Int): PlanarImage =
    decode(unframe(bytes), ScanScript.sequential(3), quality, width, height, AllComponents)

  private def decode(
      scans: Seq[Array[Byte]],
      script: Seq[ScanSpec],
      quality: Int,
      width: Int,
      height: Int,
      components: Seq[Int]): PlanarImage = {
    val (ci, depth) = decodeScans(scans, script, width, height, components)
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

  /** Inverse of [[frame]]. A count or length that does not fit the bytes
    * left is rejected before anything is allocated for it.
    */
  def unframe(bytes: Array[Byte]): Vector[Array[Byte]] = {
    val bb = java.nio.ByteBuffer.wrap(bytes)
    require(bb.remaining >= 4, s"corrupt frame: scan count past the end of ${bytes.length} bytes")
    val n = bb.getInt
    require(n >= 0 && n <= 64 && n <= bb.remaining / 4,
      s"corrupt frame: scan count $n with ${bb.remaining} bytes left")
    Vector.tabulate(n) { i =>
      val len = bb.getInt
      require(len >= 0 && len <= bb.remaining - 4 * (n - 1 - i),
        s"corrupt frame: scan $i length $len with ${bb.remaining} bytes left")
      val a = new Array[Byte](len)
      bb.get(a)
      a
    }
  }
}
