package repro.core

import java.nio.file.{Files, Paths}
import java.security.MessageDigest

import repro.{SparkSpec, TempDirs}
import repro.imaging.SyntheticImages
import repro.jpeg.Codec

/** End-to-end tests of the Spark encoder job + decoder over real files. */
class PcrSparkSpec extends SparkSpec {

  private lazy val dir = TempDirs.create("pcr-test").toString
  private val spec = SyntheticImages.imagenet
  private val sf = 0.02 // 256 images → 2 records of 128
  private lazy val manifests = PcrEncoder.encodeDataset(spark, spec, sf, dir)

  test("encoder writes one record per imagesPerRecord group") {
    assert(manifests.length == 2)
    assert(manifests.map(_.nImages).sum == spec.numImages(sf))
    assert(PcrEncoder.listRecords(dir).size == 2)
  }

  test("manifest offsets match on-disk headers") {
    for (m <- manifests) {
      val h = PcrDecoder.readHeader(m.path)
      assert(h.groupEndOffsets.toSeq == m.groupEndOffsets)
      assert(h.totalLength == m.totalBytes)
      assert(Files.size(java.nio.file.Paths.get(m.path)) == m.totalBytes)
    }
  }

  test("prefix bytes are strictly increasing in the scan group") {
    val m = manifests.head
    val sizes = (1 to 10).map(m.prefixBytes)
    sizes.sliding(2).foreach { case Seq(a, b) => assert(a < b) }
    assert(sizes.last == m.totalBytes)
  }

  test("full-fidelity PCR decode equals a direct codec round-trip") {
    val decoded = PcrDecoder.readRecord(manifests.head.path, 10)
    assert(decoded.length == 128)
    for (d <- decoded.take(4)) {
      val img = SyntheticImages.generate(spec, d.id)
      val scans = Codec.encodeProgressive(img, spec.quality)
      val direct = Codec.decodeProgressive(scans, spec.quality, spec.width, spec.height)
      assert(d.image.y.sameElements(direct.y), s"image ${d.id}")
      assert(d.image.cb.sameElements(direct.cb))
      assert(d.label == SyntheticImages.label(spec, d.id))
    }
  }

  test("partial-fidelity PCR decode equals a direct prefix decode") {
    for (g <- Seq(1, 2, 5)) {
      val decoded = PcrDecoder.readRecord(manifests.head.path, g)
      val d = decoded.head
      val img = SyntheticImages.generate(spec, d.id)
      val scans = Codec.encodeProgressive(img, spec.quality)
      val direct = Codec.decodeProgressive(scans.take(g), spec.quality, spec.width, spec.height)
      assert(d.image.y.sameElements(direct.y), s"scan $g image ${d.id}")
      assert(d.scanGroup == g)
    }
  }

  test("bytesRead reflects the amortized prefix size") {
    val h = PcrDecoder.readHeader(manifests.head.path)
    for (g <- Seq(1, 5, 10)) {
      val d = PcrDecoder.readRecord(manifests.head.path, g).head
      assert(math.abs(d.bytesRead - h.prefixLength(g).toDouble / h.nImages) < 1e-9)
    }
  }

  test("lower scan groups decode to lower-fidelity images") {
    val full = PcrDecoder.readRecord(manifests.head.path, 10).head
    val low = PcrDecoder.readRecord(manifests.head.path, 1).head
    val mid = PcrDecoder.readRecord(manifests.head.path, 5).head
    val pLow = low.image.psnrY(full.image)
    val pMid = mid.image.psnrY(full.image)
    assert(pLow < pMid, s"psnr scan1=$pLow scan5=$pMid")
  }

  test("requested scan group is capped at the record's group count") {
    val d = PcrDecoder.readRecord(manifests.head.path, 99)
    assert(d.head.scanGroup == 10)
  }

  test("record ids partition the dataset without overlap") {
    val ids = manifests.flatMap(m => PcrDecoder.readHeader(m.path).ids)
    assert(ids.sorted == (0L until spec.numImages(sf)))
  }

  test("a dataset that is not a multiple of imagesPerRecord ends in a short record, byte for byte") {
    val sfShort = 300.0 / 12800 // 300 images → 128 + 128 + 44
    val pcrDir = TempDirs.create("pcr-short").toString
    val tfrDir = TempDirs.create("tfr-short").toString
    val pcr = PcrEncoder.encodeDataset(spark, spec, sfShort, pcrDir)
    val tfr = BaselineFormats.writeTfRecordLike(spark, spec, sfShort, tfrDir)
    assert(pcr.map(_.nImages) == Seq(128, 128, 44))
    assert(pcr.map(_.recordIndex) == Seq(0L, 1L, 2L))
    val ids = pcr.map(m => PcrDecoder.readHeader(m.path).ids.toSeq)
    assert(ids == Seq(0L until 128L, 128L until 256L, 256L until 300L))
    assert(tfr.map { case (p, _) => BaselineFormats.readTfRecordLike(p).map(_._1) } == ids)

    def sha256(path: String): String =
      MessageDigest.getInstance("SHA-256").digest(Files.readAllBytes(Paths.get(path)))
        .map(b => f"$b%02x").mkString
    // Pinned: a change to how records are written must not change a byte of them.
    val digests = (pcr.map(_.path) ++ tfr.map(_._1)).map(p => Paths.get(p).getFileName.toString -> sha256(p))
    assert(digests == Seq(
      "record-00000.pcr" -> "9385cd2f428f8b3f9fa21d6f51e6786694dbe4b19fc8c7d9efddf3f3e6afdbc6",
      "record-00001.pcr" -> "1511f759e07d0d872cc2f20caa9fe7c451836b652e41ccc83aa749d7214f221f",
      "record-00002.pcr" -> "522f81659fc34e4075e5cb87ee46caa9c8296ee611aa6baee01e67e716e00869",
      "record-00000.tfr" -> "40a09a2380f9eb3f61447c70811c8bc7f68512d25ae1f5b6aa7884efd5fc8d49",
      "record-00001.tfr" -> "06cdd1cb79b2f6e9678a290630743e8fb30ed8e7a67a6ecea44f5630be031b8e",
      "record-00002.tfr" -> "6d469a07df55f336cc1cf5a2a38b3f3ca0172305ffbd9bbe1a26df3942a89b9c"))
  }
}
