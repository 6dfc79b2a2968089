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

/** One [[PcrDecoder.read]] of a record: its header, its decoded images
  * (in header order, parallel to `header.ids` and `header.labels`; empty
  * when no component was decoded; a component not decoded is flat 128) and
  * the bytes fetched from the file.
  */
final case class RecordRead(
    header: PcrHeader,
    scanGroup: Int,
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
    val headerLen = PcrRecord.parseFixedHeader(java.nio.ByteBuffer.wrap(fixed), path).headerLength
    require(headerLen <= raf.length(), s"$path: header of $headerLen bytes exceeds the file")
    val hdr = java.util.Arrays.copyOf(fixed, headerLen.toInt)
    raf.readFully(hdr, fixed.length, hdr.length - fixed.length)
    (PcrRecord.parseHeader(hdr, path), hdr)
  }

  private def withFile[A](path: String)(body: RandomAccessFile => A): A = {
    val raf = new RandomAccessFile(path, "r")
    try body(raf) finally raf.close()
  }

  /** Read only the header of a record file (metadata + offset index). */
  def readHeader(path: String): PcrHeader = withFile(path)(openRecord(_, path)._1)

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

  /** The one read of a record: open `path` once and read its header. When
    * `components` is empty that is all; otherwise it reads the rest of the
    * prefix for `scanGroup` (capped to the record's group count) through
    * the same file and decodes those components (0 = y, 1 = cb, 2 = cr) of
    * every image.
    */
  def read(path: String, scanGroup: Int, components: Seq[Int] = Codec.AllComponents): RecordRead =
    withFile(path) { raf =>
      val (header, hdr) = openRecord(raf, path)
      val g = math.min(scanGroup, header.nScanGroups)
      if (components.isEmpty) RecordRead(header, g, Array.empty, hdr.length)
      else {
        val images = readPrefix(raf, path, header, hdr, g).map(e =>
          Codec.decodeProgressive(e.scans, header.quality, header.width, header.height, components)).toArray
        RecordRead(header, g, images, header.prefixLength(g))
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
