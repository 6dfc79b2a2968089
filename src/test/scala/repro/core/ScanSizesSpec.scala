package repro.core

import repro.{SparkSpec, TempDirs}
import repro.imaging.SyntheticImages
import repro.jpeg.Codec

/** Table 1's sizes read off the stored records equal the codec's own
  * per-image scan and sequential lengths.
  */
class ScanSizesSpec extends SparkSpec {

  private val spec = SyntheticImages.celebahq
  private val sf = 0.05 // 120 images → records of 96 and 24
  private lazy val base = TempDirs.create("scan-sizes").toString
  private lazy val manifests = PcrEncoder.encodeDataset(spark, spec, sf, s"$base/pcr")
  private lazy val tfr = BaselineFormats.writeTfRecordLike(spark, spec, sf, s"$base/tfr")

  test("fromRecords equals the per-image means of the codec's stream lengths") {
    val n = spec.numImages(sf)
    val images = (0L until n).map(SyntheticImages.generate(spec, _))
    val cumulative = images.map(img =>
      Codec.encodeProgressive(img, spec.quality).scanLeft(0L)(_ + _.length).tail)
    val expected = ScanSizeStats(spec.name, n,
      (0 until 10).map(i => cumulative.map(_(i)).sum.toDouble / n).toVector,
      images.map(Codec.encodeSequential(_, spec.quality).length.toLong).sum.toDouble / n)
    assert(ScanSizes.fromRecords(spec.name, manifests, tfr) == expected)
  }

  test("fromRecords rejects baseline files that hold a different image count") {
    assert(tfr.size == 2)
    assertThrows[IllegalArgumentException](ScanSizes.fromRecords(spec.name, manifests, tfr.take(1)))
  }
}
