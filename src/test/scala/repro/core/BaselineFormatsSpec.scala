package repro.core

import java.nio.file.{Files, Paths}

import repro.{SparkSpec, TempDirs}
import repro.imaging.SyntheticImages
import repro.jpeg.Codec

class BaselineFormatsSpec extends SparkSpec {

  private val spec = SyntheticImages.cars
  private val sf = 0.1 // 80 images → 2 records of 64/16

  test("TFRecord-like files round-trip ids, labels and pixels") {
    val dir = TempDirs.create("tfr-test").toString
    val files = BaselineFormats.writeTfRecordLike(spark, spec, sf, dir)
    assert(files.size == 2)
    val images = files.flatMap { case (p, _) => BaselineFormats.readTfRecordLike(p) }
    assert(images.size == spec.numImages(sf))
    val (id, label, img) = images.minBy(_._1)
    assert(id == 0 && label == SyntheticImages.label(spec, 0))
    val direct = Codec.decodeSequential(
      Codec.encodeSequential(SyntheticImages.generate(spec, 0), spec.quality),
      spec.quality, spec.width, spec.height)
    assert(img.y.sameElements(direct.y))
  }

  test("record serialization rejects corrupt bytes") {
    assertThrows[IllegalArgumentException](BaselineFormats.parseRecord(Array[Byte](0, 1, 2, 3)))
  }

  test("parseRecord rejects an image count or payload length that does not fit the record") {
    val record = BaselineFormats.serializeRecord(8, 8, 90,
      Seq((1L, 2, Array[Byte](1, 2, 3)), (7L, 0, Array[Byte](4))))
    def withInt(at: Int, v: Int): Array[Byte] = {
      val b = record.clone()
      java.nio.ByteBuffer.wrap(b).putInt(at, v)
      b
    }
    def rejected(bytes: Array[Byte], field: String): Unit = {
      val e = intercept[IllegalArgumentException](BaselineFormats.parseRecord(bytes))
      assert(e.getMessage.contains(field), e.getMessage)
    }
    // Layout: 24-byte header (count at 4), then per image id(8) label(4) len(4) payload.
    for (n <- Seq(-1, 3, Int.MaxValue)) rejected(withInt(4, n), "image count")
    for (len <- Seq(-1, 5, 20, Int.MaxValue)) rejected(withInt(36, len), "image 0 payload length")
    for (len <- Seq(-1, 2, Int.MaxValue)) rejected(withInt(55, len), "image 1 payload length")
    rejected(record.take(20), "not a TFR1 record")
    rejected(record.dropRight(1), "image 1 payload length")
  }

  test("File-per-Image writes one file per image plus labels") {
    val dir = TempDirs.create("fpi-test").toString
    val files = BaselineFormats.writeFilePerImage(spark, spec, 0.05, dir)
    assert(files.size == spec.numImages(0.05))
    assert(Files.exists(Paths.get(dir, "labels.csv")))
    val labels = new String(Files.readAllBytes(Paths.get(dir, "labels.csv"))).linesIterator.toSeq
    assert(labels.size == files.size)
    // Per-file payloads decode like the record payloads.
    val (p0, len0) = files.head
    val payload = Files.readAllBytes(Paths.get(p0))
    assert(payload.length == len0)
    val img = Codec.decodeSequential(payload, spec.quality, spec.width, spec.height)
    assert(img.width == spec.width)
  }

  test("a quality override re-encodes at lower fidelity and smaller size") {
    val dirHi = TempDirs.create("tfr-hi").toString
    val dirLo = TempDirs.create("tfr-lo").toString
    val hi = BaselineFormats.writeTfRecordLike(spark, spec, 0.05, dirHi).map(_._2).sum
    val lo = BaselineFormats.writeTfRecordLike(spark, spec, 0.05, dirLo,
      qualityOverride = Some(50)).map(_._2).sum
    assert(lo < hi, s"quality-50 ($lo B) not smaller than native ($hi B)")
  }

  test("TFRecord total size is close to full-fidelity PCR size (paper §3)") {
    val dirT = TempDirs.create("tfr-cmp").toString
    val dirP = TempDirs.create("pcr-cmp").toString
    val tfr = BaselineFormats.writeTfRecordLike(spark, spec, 0.05, dirT).map(_._2).sum
    val pcr = PcrEncoder.encodeDataset(spark, spec, 0.05, dirP).map(_.totalBytes).sum
    val ratio = pcr.toDouble / tfr
    assert(ratio > 0.7 && ratio < 1.5, s"PCR/TFR size ratio $ratio")
  }
}
