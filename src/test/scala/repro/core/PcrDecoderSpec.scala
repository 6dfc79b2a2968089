package repro.core

import java.io.RandomAccessFile
import java.nio.ByteBuffer
import java.nio.file.Files

import org.scalatest.funsuite.AnyFunSuite

import repro.imaging.SyntheticImages
import repro.jpeg.Codec

/** A file opened for reading that counts the bytes read through it. */
private final class CountingFile(path: String) extends RandomAccessFile(path, "r") {
  var bytesRead = 0L
  override def read(b: Array[Byte], off: Int, len: Int): Int = {
    val n = super.read(b, off, len)
    if (n > 0) bytesRead += n
    n
  }
}

class PcrDecoderSpec extends AnyFunSuite {

  private def write(bytes: Array[Byte]): String = {
    val f = Files.createTempFile("pcr-decoder", ".pcr")
    f.toFile.deleteOnExit()
    Files.write(f, bytes)
    f.toString
  }

  private def record: Array[Byte] = {
    val rng = new repro.imaging.Rng(3)
    val entries = (0L until 4L).map { id =>
      PcrImageEntry(id, id.toInt % 3, Vector.tabulate(10)(g =>
        Array.fill(5 + (rng.nextDouble() * 40).toInt + g)((rng.nextLong() & 0xff).toByte)))
    }
    PcrRecord.serialize(32, 32, 90, entries)
  }

  /** A fixed header claiming `n` images and `ng` scan groups, followed by
    * `extra` zero bytes.
    */
  private def hostile(n: Int, ng: Int, extra: Int = 64): String = {
    val bb = ByteBuffer.allocate(24 + extra)
    bb.putInt(PcrRecord.Magic).putInt(n).putInt(ng).putInt(32).putInt(32).putInt(90)
    write(bb.array())
  }

  test("readRecordRaw fetches exactly prefixLength(g) bytes at every scan group") {
    val bytes = record
    val path = write(bytes)
    val header = PcrRecord.parseHeader(bytes)
    for (g <- 1 to header.nScanGroups) {
      val f = new CountingFile(path)
      val (h, entries) = try PcrDecoder.readRecordRaw(f, path, g) finally f.close()
      assert(f.bytesRead == header.prefixLength(g), s"g=$g")
      val (_, expected) = PcrRecord.parsePrefix(bytes, g)
      assert(h.groupEndOffsets.sameElements(header.groupEndOffsets))
      assert(entries.map(_.id) == expected.map(_.id))
      for ((a, b) <- entries.zip(expected); (sa, sb) <- a.scans.zip(b.scans))
        assert(sa.sameElements(sb), s"g=$g image=${a.id}")
    }
  }

  test("a header claiming Int.MaxValue / 8 images is rejected before allocating") {
    val path = hostile(Int.MaxValue / 8, 10)
    assertThrows[IllegalArgumentException](PcrDecoder.readHeader(path))
    assertThrows[IllegalArgumentException](PcrDecoder.readRecordRaw(path, 1))
    assertThrows[IllegalArgumentException](PcrDecoder.readRecord(path, 1))
  }

  test("headers with impossible counts or past the end of the file are rejected") {
    for ((n, ng) <- Seq((0, 10), (-1, 10), (Int.MinValue, 10), (4, 0), (4, -3), (4, 65), (1000, 10)))
      assertThrows[IllegalArgumentException](PcrDecoder.readHeader(hostile(n, ng)), s"n=$n ng=$ng")
  }

  test("a truncated record is rejected with a typed error") {
    val bytes = record
    val header = PcrRecord.parseHeader(bytes)
    val path = write(bytes.take(header.prefixLength(3).toInt + 1))
    assert(PcrDecoder.readRecordRaw(path, 3)._2.size == 4)
    assertThrows[IllegalArgumentException](PcrDecoder.readRecordRaw(path, 4))
  }

  /** `record` with `patch` applied to its bytes. */
  private def patched(patch: ByteBuffer => Unit): Array[Byte] = {
    val bytes = record
    patch(ByteBuffer.wrap(bytes))
    bytes
  }

  test("each header field and length table is validated before allocating") {
    val header = PcrRecord.parseHeader(record)
    val offsets = 24 + 12 * header.nImages // where groupEndOffsets starts
    val table1 = header.headerLength.toInt // scan group 1's length table
    val corrupt = Map[String, ByteBuffer => Unit](
      "width not a multiple of 16" -> (_.putInt(12, 40)),
      "width 0" -> (_.putInt(12, 0)),
      "negative height" -> (_.putInt(16, -32)),
      "width x height over the cap" -> (_.putInt(12, 4096).putInt(16, 2048)),
      "quality 0" -> (_.putInt(20, 0)),
      "quality 101" -> (_.putInt(20, 101)),
      "group 0 ending after the header" -> (_.putLong(offsets, header.headerLength + 1)),
      "group 1 shorter than its length table" ->
        (_.putLong(offsets + 8, header.headerLength + 4L * header.nImages - 1)),
      "a negative scan length" -> (_.putInt(table1, -1)),
      "scan lengths not summing to the group" -> (bb => bb.putInt(table1, bb.getInt(table1) + 1)))
    for ((what, patch) <- corrupt) withClue(what) {
      val bytes = patched(patch)
      assertThrows[IllegalArgumentException](PcrRecord.parsePrefix(bytes, header.nScanGroups))
      assertThrows[IllegalArgumentException](PcrDecoder.readRecordRaw(write(bytes), header.nScanGroups))
    }
  }

  test("every bit flip of an imagenet record's header and length tables decodes or is rejected") {
    val spec = SyntheticImages.imagenet
    val bytes = PcrRecord.serialize(spec.width, spec.height, spec.quality, (0L until 8L).map { id =>
      PcrImageEntry(id, SyntheticImages.label(spec, id),
        Codec.encodeProgressive(SyntheticImages.generate(spec, id, 0L), spec.quality))
    })
    val header = PcrRecord.parseHeader(bytes)
    val tables = (0 until header.nScanGroups).flatMap { g =>
      val start = header.groupEndOffsets(g).toInt
      start until start + 4 * header.nImages
    }
    val path = write(bytes)
    var decoded = 0
    var rejected = 0
    for (byte <- (0 until header.headerLength.toInt) ++ tables; bit <- 0 until 8) {
      val flipped = bytes.clone()
      flipped(byte) = (flipped(byte) ^ (1 << bit)).toByte
      Files.write(java.nio.file.Paths.get(path), flipped)
      try {
        assert(PcrDecoder.readRecord(path, header.nScanGroups).size == header.nImages)
        decoded += 1
      } catch { case _: IllegalArgumentException => rejected += 1 }
    }
    assert(decoded + rejected == 8 * (header.headerLength + 4 * header.nImages * header.nScanGroups))
    assert(decoded > 0 && rejected > 0, s"decoded $decoded, rejected $rejected")
    info(s"$decoded flips decoded, $rejected rejected")
  }
}
