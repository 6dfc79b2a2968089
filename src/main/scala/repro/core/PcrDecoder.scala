package repro.core

import java.io.RandomAccessFile

import repro.imaging.PlanarImage
import repro.jpeg.Codec

/** One image decoded from a PCR record at some fidelity. `bytesRead` is the
  * record-prefix length amortized over the record's images — the quantity
  * the paper's I/O model (Thm 4.1) is built on.
  */
final case class DecodedImage(
    id: Long,
    label: Int,
    scanGroup: Int,
    bytesRead: Double,
    image: PlanarImage)

/** One [[PcrDecoder.read]] of a record: the indices of the selected images,
  * their decoded images (parallel to `selected`, empty when no component
  * was decoded; a component not decoded is flat 128) and the bytes
  * fetched from the file.
  */
final case class RecordRead(
    header: PcrHeader,
    scanGroup: Int,
    selected: Array[Int],
    images: Array[PlanarImage],
    bytesFetched: Long) {

  /** The record-prefix length at `scanGroup` amortized over its images. */
  def bytesPerImage: Double = header.prefixLength(scanGroup).toDouble / header.nImages
}

/** The PCR decoder (§5 "Decoding"): read the record-file byte prefix up to
  * the requested scan group's end offset, regroup per-image scans, and hand
  * each truncated stream to the JPEG decoder (the EOI-termination trick —
  * here the codec natively decodes scan prefixes).
  */
object PcrDecoder {

  /** Read the header of the record open in `raf`, leaving the file
    * position at its end. The counts are validated, and the header length
    * computed in `Long` and checked against the file size, before anything
    * is allocated from them. Returns the parsed header and its raw bytes.
    */
  private def openRecord(raf: RandomAccessFile, path: String): (PcrHeader, Array[Byte]) = {
    val fixed = new Array[Byte](PcrRecord.FixedHeaderLength)
    raf.readFully(fixed)
    val bb = java.nio.ByteBuffer.wrap(fixed)
    require(bb.getInt() == PcrRecord.Magic, s"$path is not a PCR record")
    val headerLen = PcrRecord.headerLength(bb.getInt(), bb.getInt())
    require(headerLen <= raf.length(), s"$path: header of $headerLen bytes exceeds the file")
    val hdr = java.util.Arrays.copyOf(fixed, headerLen.toInt)
    raf.readFully(hdr, fixed.length, hdr.length - fixed.length)
    (PcrRecord.parseHeader(hdr), hdr)
  }

  private def withFile[A](path: String)(body: RandomAccessFile => A): A = {
    val raf = new RandomAccessFile(path, "r")
    try body(raf) finally raf.close()
  }

  /** Read only the header of a record file (metadata + offset index). */
  def readHeader(path: String): PcrHeader = withFile(path)(openRecord(_, path)._1)

  /** Bytes a reader must fetch from `path` for fidelity `scanGroup`. */
  def prefixBytes(path: String, scanGroup: Int): Long =
    readHeader(path).prefixLength(scanGroup)

  /** Read the prefix of `path` for `scanGroup` and return raw entries plus
    * the header — no pixel decoding (the reader microbenchmark path).
    */
  def readRecordRaw(path: String, scanGroup: Int): (PcrHeader, Seq[PcrImageEntry]) =
    withFile(path)(readRecordRaw(_, path, scanGroup))

  /** [[readRecordRaw]] over an open file: one pass that reads the header,
    * then the rest of the prefix, so exactly `prefixLength(g)` bytes.
    */
  private[core] def readRecordRaw(
      raf: RandomAccessFile,
      path: String,
      scanGroup: Int): (PcrHeader, Seq[PcrImageEntry]) = {
    val (header, hdr) = openRecord(raf, path)
    (header, readPrefix(raf, path, header, hdr, math.min(scanGroup, header.nScanGroups)))
  }

  /** Read and parse the prefix for scan group `g` after `openRecord`'s `hdr`. */
  private def readPrefix(
      raf: RandomAccessFile,
      path: String,
      header: PcrHeader,
      hdr: Array[Byte],
      g: Int): Seq[PcrImageEntry] = {
    val prefixLen = header.prefixLength(g)
    require(prefixLen >= hdr.length && prefixLen <= raf.length(),
      s"$path: prefix of $prefixLen bytes at scan group $g is outside [${hdr.length}, ${raf.length()}]")
    val bytes = java.util.Arrays.copyOf(hdr, prefixLen.toInt)
    raf.readFully(bytes, hdr.length, bytes.length - hdr.length)
    PcrRecord.parsePrefix(header, bytes, g)
  }

  /** The one read of a record: open `path` once, read its header and
    * select the images whose `(id, label)` pass `keep` (all without it).
    * Only when `components` is non-empty and some image is selected does
    * it read the rest of the prefix for `scanGroup` (capped to the
    * record's group count) through the same file and decode those
    * components (0 = y, 1 = cb, 2 = cr) of the selected images.
    */
  def read(
      path: String,
      scanGroup: Int,
      components: Seq[Int] = Codec.AllComponents,
      keep: Option[(Long, Int) => Boolean] = None): RecordRead = withFile(path) { raf =>
    val (header, hdr) = openRecord(raf, path)
    val g = math.min(scanGroup, header.nScanGroups)
    val selected = header.ids.indices.filter(k => keep.forall(_(header.ids(k), header.labels(k)))).toArray
    if (components.isEmpty || selected.isEmpty) RecordRead(header, g, selected, Array.empty, hdr.length)
    else {
      val entries = readPrefix(raf, path, header, hdr, g)
      val images = selected.map(k =>
        Codec.decodeProgressive(entries(k).scans, header.quality, header.width, header.height, components))
      RecordRead(header, g, selected, images, header.prefixLength(g))
    }
  }

  /** Read + decode every image of a record at fidelity `scanGroup` (capped
    * to the record's group count).
    */
  def readRecord(path: String, scanGroup: Int): Seq[DecodedImage] = {
    val r = read(path, scanGroup)
    r.images.indices.map(k =>
      DecodedImage(r.header.ids(k), r.header.labels(k), r.scanGroup, r.bytesPerImage, r.images(k)))
  }
}
