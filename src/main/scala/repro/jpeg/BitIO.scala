package repro.jpeg

/** MSB-first bit stream writer over a growable byte buffer. Each entropy-
  * coded scan is an independent, byte-aligned bit stream, which is what lets
  * the PCR layout concatenate scans from different images into scan groups.
  *
  * Bits collect in a 64-bit accumulator and leave it a whole byte at a time.
  */
final class BitWriter(initialCapacity: Int = 256) {
  private var buf = new Array[Byte](math.max(16, initialCapacity))
  private var byteLen = 0
  private var acc = 0L // the low nAcc bits are pending, oldest first
  private var nAcc = 0 // always < 8 between calls

  def writeBit(b: Int): Unit = writeBits(b & 1, 1)

  /** Write the low `n` bits of `v`, MSB first. n may be 0 (no-op). */
  def writeBits(v: Int, n: Int): Unit = {
    require(n >= 0 && n <= 32, s"bad bit count $n")
    acc = (acc << n) | (v.toLong & ((1L << n) - 1))
    nAcc += n
    if (nAcc >= 8) {
      if (byteLen + 5 > buf.length) {
        buf = java.util.Arrays.copyOf(buf, math.max(buf.length * 2, byteLen + 5))
      }
      while (nAcc >= 8) {
        nAcc -= 8
        buf(byteLen) = (acc >>> nAcc).toByte
        byteLen += 1
      }
      acc &= (1L << nAcc) - 1
    }
  }

  def bitLength: Long = byteLen.toLong * 8 + nAcc

  /** Pad the final partial byte with 1s (like JPEG) and return the bytes. */
  def toBytes: Array[Byte] =
    if (nAcc == 0) java.util.Arrays.copyOf(buf, byteLen)
    else {
      val o = java.util.Arrays.copyOf(buf, byteLen + 1)
      o(byteLen) = ((acc << (8 - nAcc)) | ((1 << (8 - nAcc)) - 1)).toByte
      o
    }
}

/** MSB-first bit reader over a byte array. Reading past the end yields 1s
  * (the padding value), mirroring how JPEG decoders treat the stream tail.
  *
  * Up to 64 bits are buffered, left-aligned in a `Long`: a read peeks at the
  * top `n` bits and consumes them, and refills a byte at a time only when
  * fewer than `n` remain. The codec's block loops copy the state into
  * locals and write it back when done.
  */
final class BitReader(private[jpeg] val bytes: Array[Byte]) {
  private val nBits = bytes.length.toLong * 8
  private[jpeg] var window = 0L // unread bits, MSB first; bits below nWindow are 0
  private[jpeg] var nWindow = 0
  private[jpeg] var pos = 0L // bits consumed, including padding past the end

  def readBit(): Int = readBits(1)

  /** Read `n` bits (0 ≤ n ≤ 32) as an unsigned value, MSB first. */
  def readBits(n: Int): Int = {
    if (n <= 0) {
      require(n == 0, s"bad bit count $n")
      0
    } else {
      require(n <= 32, s"bad bit count $n")
      if (nWindow < n) { window = BitReader.fill(bytes, window, nWindow, pos); nWindow += (64 - nWindow) & ~7 }
      val v = (window >>> (64 - n)).toInt
      window <<= n
      nWindow -= n
      pos += n
      v
    }
  }

  def bitsRead: Long = pos
  def exhausted: Boolean = pos >= nBits
}

object BitReader {

  /** `window` with whole bytes of `bytes` appended below its `nWindow`
    * unread bits until more than 56 are unread, 1s past the end of
    * `bytes`. `pos + nWindow` bits, always whole bytes, are buffered so
    * far. The caller adds the bits appended, `(64 - nWindow) & ~7`, to
    * `nWindow`.
    */
  private[jpeg] def fill(bytes: Array[Byte], window: Long, nWindow: Int, pos: Long): Long = {
    var w = window
    var n = nWindow
    var next = (pos + nWindow) >>> 3
    while (n <= 56) {
      val b = if (next < bytes.length) bytes(next.toInt) & 0xff else 0xff
      w |= b.toLong << (56 - n)
      n += 8
      next += 1
    }
    w
  }
}
