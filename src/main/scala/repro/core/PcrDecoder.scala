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
    val g = math.min(scanGroup, header.nScanGroups)
    val prefixLen = header.prefixLength(g)
    require(prefixLen >= hdr.length && prefixLen <= raf.length(),
      s"$path: prefix of $prefixLen bytes at scan group $g is outside [${hdr.length}, ${raf.length()}]")
    val bytes = java.util.Arrays.copyOf(hdr, prefixLen.toInt)
    raf.readFully(bytes, hdr.length, bytes.length - hdr.length)
    PcrRecord.parsePrefix(bytes, g)
  }

  /** Read + decode every image of a record at fidelity `scanGroup` (capped
    * to the record's group count).
    */
  def readRecord(path: String, scanGroup: Int): Seq[DecodedImage] = {
    val (header, entries) = readRecordRaw(path, scanGroup)
    val g = math.min(scanGroup, header.nScanGroups)
    val perImageBytes = header.prefixLength(g).toDouble / header.nImages
    entries.map { e =>
      val img = Codec.decodeProgressive(e.scans, header.quality, header.width, header.height)
      DecodedImage(e.id, e.label, g, perImageBytes, img)
    }
  }
}
