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
