package repro.jpeg

/** The original scan coder: it walks every slot of a scan's band, emits
  * each symbol and its value bits as separate writes, and makes two passes
  * over a refinement band. It writes through the bit-at-a-time
  * [[ReferenceBitWriter]], so it is the oracle that [[Codec.encodeScan]] and
  * the buffered [[BitWriter]] together must match byte for byte.
  */
object ReferenceScanCoder {

  /** JPEG point transform for AC coefficients: sign-magnitude right shift. */
  private def pt(v: Int, al: Int): Int = if (v >= 0) v >> al else -((-v) >> al)

  /** Bit category of a value: smallest s with |v| < 2^s (0 for v == 0). */
  private def category(v: Int): Int = 32 - Integer.numberOfLeadingZeros(math.abs(v))

  /** JPEG signed value coding: positives as-is, negatives one's-complement. */
  private def writeSigned(bw: ReferenceBitWriter, v: Int, s: Int): Unit =
    if (v >= 0) bw.writeBits(v, s) else bw.writeBits(v + (1 << s) - 1, s)

  /** Entropy-encode one scan of `ci` into its own byte-aligned stream. */
  def encodeScan(ci: CoefImage, spec: ScanSpec): Array[Byte] = {
    val bw = new ReferenceBitWriter()
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
          bw.writeBits((blocks(b)(0) >> spec.al) & 1, 1)
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
          // positions (6-bit count, 6-bit position, sign bit).
          var b = 0
          while (b < blocks.length) {
            val zz = blocks(b)
            var k = acStart
            var nNew = 0
            while (k <= spec.se) {
              val prevMag = math.abs(zz(k)) >> spec.ah
              val newMag  = math.abs(zz(k)) >> spec.al
              if (prevMag != 0) bw.writeBits(newMag & 1, 1)
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
                bw.writeBits(if (zz(k) > 0) 1 else 0, 1)
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
}
