package repro.core

import java.nio.ByteBuffer

/** One image inside a PCR record: its per-scan entropy streams. */
final case class PcrImageEntry(id: Long, label: Int, scans: Vector[Array[Byte]])

/** Parsed header of a PCR record file. Everything needed to plan a partial
  * read lives here: per-scan-group absolute end offsets and per-image
  * metadata (the paper's "metadata is small and can be pre-pended").
  */
final case class PcrHeader(
    nImages: Int,
    nScanGroups: Int,
    width: Int,
    height: Int,
    quality: Int,
    ids: Array[Long],
    labels: Array[Int],
    groupEndOffsets: Array[Long]) {

  /** File bytes that must be read to reach fidelity `scanGroup` (1-based).
    * `scanGroup = 0` reads metadata only.
    */
  def prefixLength(scanGroup: Int): Long = {
    require(scanGroup >= 0 && scanGroup <= nScanGroups,
      s"scan group $scanGroup out of [0, $nScanGroups]")
    groupEndOffsets(scanGroup)
  }

  def headerLength: Long = groupEndOffsets(0)
  def totalLength: Long  = groupEndOffsets(nScanGroups)
}

/** Binary layout of a Progressive Compressed Record (§3, Figure 4).
  *
  * {{{
  * magic(4) nImages(4) nScanGroups(4) width(4) height(4) quality(4)
  * ids:    nImages × 8 bytes
  * labels: nImages × 4 bytes
  * groupEndOffsets: (nScanGroups + 1) × 8 bytes   // [0] = header end
  * for g in 1..nScanGroups:                        // scan group g
  *   scanLengths: nImages × 4 bytes
  *   scanBytes:   concatenated scan-g streams of every image
  * }}}
  *
  * Reading the byte prefix `[0, groupEndOffsets(g))` yields every image of
  * the record at fidelity g; reading the whole file decodes bit-identically
  * to the sequential encoding (the codec guarantees this).
  */
object PcrRecord {
  val Magic: Int = 0x50435231 // "PCR1"

  /** Largest `width · height` a header may claim; the largest dataset is 128×128. */
  val MaxPixels: Long = 1L << 22

  /** magic, nImages, nScanGroups, width, height, quality: 4 bytes each. */
  val FixedHeaderLength: Int = 24

  /** Header length of a record with `nImages` images and `nScanGroups`
    * groups, computed in `Long` so corrupt counts cannot overflow it.
    * Rejects counts no record can have, and headers over 2 GiB.
    */
  def headerLength(nImages: Int, nScanGroups: Int): Long = {
    require(nImages > 0 && nScanGroups > 0 && nScanGroups <= 64,
      s"corrupt PCR header: n=$nImages groups=$nScanGroups")
    val len = FixedHeaderLength + 12L * nImages + 8L * (nScanGroups + 1)
    require(len <= Int.MaxValue, s"corrupt PCR header: $len header bytes for n=$nImages")
    len
  }

  def serialize(width: Int, height: Int, quality: Int, entries: Seq[PcrImageEntry]): Array[Byte] = {
    require(entries.nonEmpty, "empty PCR record")
    val nScanGroups = entries.head.scans.length
    require(entries.forall(_.scans.length == nScanGroups), "ragged scan counts")
    val n = entries.size

    val headerLen = headerLength(n, nScanGroups)
    val groupLens = (0 until nScanGroups).map { g =>
      4L * n + entries.iterator.map(_.scans(g).length.toLong).sum
    }
    val offsets = groupLens.scanLeft(headerLen)(_ + _).toArray
    val total = offsets.last
    require(total <= Int.MaxValue, s"record too large: $total bytes")

    val bb = ByteBuffer.allocate(total.toInt)
    bb.putInt(Magic).putInt(n).putInt(nScanGroups).putInt(width).putInt(height).putInt(quality)
    entries.foreach(e => bb.putLong(e.id))
    entries.foreach(e => bb.putInt(e.label))
    offsets.foreach(bb.putLong)
    for (g <- 0 until nScanGroups) {
      entries.foreach(e => bb.putInt(e.scans(g).length))
      entries.foreach(e => bb.put(e.scans(g)))
    }
    bb.array()
  }

  /** The fields of the first [[FixedHeaderLength]] bytes of a record, and
    * the header length they give.
    */
  private[core] final case class FixedHeader(
      nImages: Int, nScanGroups: Int, width: Int, height: Int, quality: Int, headerLength: Long)

  /** Decode the fixed header at `bb`'s position and validate every field
    * before anything is allocated from it; errors name `source`.
    */
  private[core] def parseFixedHeader(bb: ByteBuffer, source: String): FixedHeader = {
    require(bb.remaining >= FixedHeaderLength, s"$source: truncated PCR header")
    require(bb.getInt() == Magic, s"$source: not a PCR record (bad magic)")
    val n = bb.getInt(); val ng = bb.getInt()
    val w = bb.getInt(); val h = bb.getInt(); val q = bb.getInt()
    val headerLen = headerLength(n, ng)
    require(w > 0 && h > 0 && w % 16 == 0 && h % 16 == 0 && w.toLong * h <= MaxPixels,
      s"$source: corrupt PCR header: image size ${w}x$h")
    require(q >= 1 && q <= 100, s"$source: corrupt PCR header: quality $q")
    FixedHeader(n, ng, w, h, q, headerLen)
  }

  /** Parse a header from a byte prefix (needs at least the header bytes);
    * errors name `source`.
    */
  def parseHeader(bytes: Array[Byte], source: String = "PCR bytes"): PcrHeader = {
    val bb = ByteBuffer.wrap(bytes)
    val f = parseFixedHeader(bb, source)
    val n = f.nImages; val ng = f.nScanGroups; val headerLen = f.headerLength
    require(bytes.length >= headerLen, s"$source: truncated PCR header")
    val ids = Array.fill(n)(bb.getLong())
    val labels = Array.fill(n)(bb.getInt())
    val offsets = Array.fill(ng + 1)(bb.getLong())
    require(offsets(0) == headerLen, s"$source: corrupt PCR header: group 0 ends at ${offsets(0)}, not $headerLen")
    for (g <- 0 until ng) require(offsets(g + 1) - offsets(g) >= 4L * n,
      s"$source: corrupt PCR header: scan group ${g + 1} spans ${offsets(g + 1) - offsets(g)} bytes for $n images")
    PcrHeader(n, ng, f.width, f.height, f.quality, ids, labels, offsets)
  }

  /** Extract per-image scans 1..scanGroup from a byte prefix of at least
    * `header.prefixLength(scanGroup)` bytes.
    */
  def parsePrefix(bytes: Array[Byte], scanGroup: Int): (PcrHeader, Seq[PcrImageEntry]) = {
    val header = parseHeader(bytes)
    (header, parsePrefix(header, bytes, scanGroup))
  }

  /** [[parsePrefix]] given `header`, the [[parseHeader]] of `bytes`. */
  def parsePrefix(header: PcrHeader, bytes: Array[Byte], scanGroup: Int): Seq[PcrImageEntry] = {
    require(scanGroup >= 1 && scanGroup <= header.nScanGroups,
      s"scan group $scanGroup out of [1, ${header.nScanGroups}]")
    require(bytes.length >= header.prefixLength(scanGroup),
      s"prefix too short: ${bytes.length} < ${header.prefixLength(scanGroup)}")
    val n = header.nImages
    val perImage = Array.fill(n)(Vector.newBuilder[Array[Byte]])
    for (g <- 0 until scanGroup) {
      val bb = ByteBuffer.wrap(bytes)
      bb.position(header.groupEndOffsets(g).toInt)
      val lens = Array.fill(n)(bb.getInt())
      val size = header.groupEndOffsets(g + 1) - header.groupEndOffsets(g) - 4L * n
      require(lens.forall(_ >= 0) && lens.map(_.toLong).sum == size,
        s"corrupt PCR record: scan group ${g + 1} lengths do not sum to its $size scan bytes")
      var i = 0
      while (i < n) {
        val a = new Array[Byte](lens(i))
        bb.get(a)
        perImage(i) += a
        i += 1
      }
    }
    (0 until n).map(i => PcrImageEntry(header.ids(i), header.labels(i), perImage(i).result()))
  }
}
