package repro.jpeg

import java.security.MessageDigest

import org.scalatest.funsuite.AnyFunSuite

import repro.imaging.{PlanarImage, SyntheticImages}

/** Pins the codec's output to SHA-256 digests captured from the original
  * matrix-product DCT and bit-at-a-time I/O: the encoded bytes (the on-disk
  * format) and the decoded pixels at four scan prefixes, for two fixed-seed
  * images of every synthetic dataset. A change to either by one bit fails.
  * `decodeScans` rejects a scan whose decode reads past its end, so these
  * decodes also show that valid streams never over-read.
  */
class CodecGoldenSpec extends AnyFunSuite {

  private val Seed = 7L
  private val Ids = Seq(0L, 1L)
  private val Groups = Seq(1, 2, 5, 10)

  private def sha256(chunks: Array[Byte]*): String = {
    val md = MessageDigest.getInstance("SHA-256")
    chunks.foreach(md.update)
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  private def planeBytes(img: PlanarImage): Seq[Array[Byte]] =
    Seq(img.y, img.cb, img.cr).map(_.map(_.toByte))

  private lazy val images = for {
    spec <- SyntheticImages.all
    id <- Ids
  } yield (spec, id, SyntheticImages.generate(spec, id, Seed))

  // Key: dataset/id. Progressive digests cover `Codec.frame` of the scans.
  private val progressiveSha: Map[String, String] = Map(
    "imagenet/0" -> "39869f8626dc657d1514721a3b905d820f2b0e999c340d9af9cb20b0f7b42740",
    "imagenet/1" -> "f1ef6fa9c32b4e039eaed8bf3a438d43a815a3d3acbef5e5a4d4c06fec5c2f79",
    "ham10000/0" -> "c5a4ce202b0a59e2979281f9bb413b2e8cdf857859e4ee7b2c0a5ed963757dbc",
    "ham10000/1" -> "e98b97a5fe301c17a4f6ec48dbf3b2ee431f8716a0c677ca708876ceda70223a",
    "cars/0" -> "cae2d8519b2de54242f4a4ceb26e388e83c5367eedac5ec90d0a119880d5d021",
    "cars/1" -> "48361d16c42ce63a5bf2bf18476425df2a994bd552de5e71ac180ade0d1669a3",
    "celebahq/0" -> "48d06c963fec0743fcba5b212f6792598859391e6831cba653a7ea92931633b8",
    "celebahq/1" -> "b8bddbf1b577bbe39eeb9a36fcdeeace8fb8d25112e985c868833f2fb3890ec6")

  private val sequentialSha: Map[String, String] = Map(
    "imagenet/0" -> "aa48267075b4441ed8f157ce52c793a0232f7ca29aa641eaa582adf12c736c5d",
    "imagenet/1" -> "19b617958d50444668d579d7858ca27a0004dc32c82b111c898dbf4f430e4bb4",
    "ham10000/0" -> "6c145407fd60f0f82d28f1cc30399c0713c180979b1e91c93c7258c4dec56268",
    "ham10000/1" -> "e6823fea98790c5fd751dc9d04e190df90a8133011fa7a640f4893051a45a8c7",
    "cars/0" -> "3d620a3b0b624502378fb376846b30766807858ae74eae29df8c348d25966524",
    "cars/1" -> "473e9a7d1550ecac5a6efb6f08445e976fe606b41803d5039cb19d5f4705d6cb",
    "celebahq/0" -> "d15e03f9efb36585bb9ee7efd99b70454956a639bc6d18a3f9115bf212f1db04",
    "celebahq/1" -> "9f824960f3f6a763d17377ace5ffbdc32460c6bcce12a009d0127879699bd4ca")

  // Key: dataset/id/g<scans decoded>. Digest of the y, cb, cr planes.
  private val decodedSha: Map[String, String] = Map(
    "imagenet/0/g1" -> "c80361d47d670c07d42145a55eed6b873c2fbc003775991b0b0070c400554e2b",
    "imagenet/0/g2" -> "465a5fe00bcec76bb496cee3323cc3723775b393414b6c9d11dd2f6db6a17b89",
    "imagenet/0/g5" -> "708051c0d8cd867f66fb64e71b68c8ca5300a88a8c63cdbd8ffbc14d33b6bc0c",
    "imagenet/0/g10" -> "9f4a955ab89fa50a117ef741d5be07aa33354a9cfb11ac973db70e351a225fc2",
    "imagenet/1/g1" -> "87641cbd56364a67a01c513625d221a17ccc93d52e05222e51ea72fa06c6ff28",
    "imagenet/1/g2" -> "f3414d591baf3859667324a71ba5e93a182ead89157d4320cbbb94410b1a624e",
    "imagenet/1/g5" -> "d6561b172aa13e0f4be30e3c985f5216122f3d4147c04e105c30c4309ee071a9",
    "imagenet/1/g10" -> "3d65f1b9f255b4803662b15c67b36f512c6940065b50b8c36aea5fc4440ae8a7",
    "ham10000/0/g1" -> "d52ae8df7c8f66a307409ddcc8cab935159710f43339dfcd8b8aec1b9bc3e53e",
    "ham10000/0/g2" -> "b64d2e0864029dd767a71fc60ad0c4081f800805a63726b32111804ad7f8bf38",
    "ham10000/0/g5" -> "330c57d4deca59cd75272f212bfd266580ddde41418edb9377136318e3ff561a",
    "ham10000/0/g10" -> "954f9d6bdaac6dfad520b68c5f1258858a6bb0dfbcfd7e81648c0d7221a446cd",
    "ham10000/1/g1" -> "a2ebcde1bf6323ec1d27b1c876bdd85173c388f4bf66f480b543c9311d07f333",
    "ham10000/1/g2" -> "4db96719ad61e7760797e0e2528a986077c3ca79627f129648786c3bdefdc8eb",
    "ham10000/1/g5" -> "801e0bd81c425986caa35100d9667e38e88d9bcf56b58bf48045cd681eece569",
    "ham10000/1/g10" -> "5c5fa858691a01d1261d776c3b55d314625142ded416c4d3ece6077d036bcd74",
    "cars/0/g1" -> "a2c9f3da4fc25ef3e7b3cc2593278b653f31c93ec881c8a166774d48ca9a30a6",
    "cars/0/g2" -> "185fdc3ec91b7fa4db954d09b5401ffd978b38972475a21b97a2e1404cae6e38",
    "cars/0/g5" -> "7ae82b6a6edb5a721b5c7380c7db9a05c21bb3f3775ab8e778adf39e497fa36a",
    "cars/0/g10" -> "53b02226312bc3be4aa3c93b1408508f64d9270de74defd1c1a131b17227abc3",
    "cars/1/g1" -> "7f63869b7fcdcd0a2fef0e37bce5e9232a89b81e28b595dbdd2b640b62645afb",
    "cars/1/g2" -> "62b3ad300d7eb80ccf6f16b80d15e015a5886d8d608d7047bae3beef99088868",
    "cars/1/g5" -> "072eba5c0761f73ad4d2caa6afd2b6aef248f7cb5855609f74a2936d6355c9f8",
    "cars/1/g10" -> "a87d5c4ecbc1603ef329f9b0b804e0245c8a816b7fd0cb56bd17464fb20b9807",
    "celebahq/0/g1" -> "5f4e953aa4a99458fd98362544b507e092f730b91a1d3d6eb9ac4e84e2275090",
    "celebahq/0/g2" -> "7c496620a8483e34a0170cead1f54093044346be9888495e823c0bc5c9c2679b",
    "celebahq/0/g5" -> "647fe1c1194e55ac719c6ef2be1b9b5971719b547ec80c95243ce3dd45454a96",
    "celebahq/0/g10" -> "2643350f53fe90297216a2db1d243c807f1be3d424c39026a5b89f1af6fd4b8e",
    "celebahq/1/g1" -> "c51198d4b3606bf77cf56a82dff1e225a69d0fe15f1c7d176e88e3cbfd7d6365",
    "celebahq/1/g2" -> "df60ea8a172becc01e14c47c9d204d704e04383d0a4dd08122c37a56e1e0970e",
    "celebahq/1/g5" -> "33f0a8c6edcf68a7ce1b99ecc0ba8431b95a9dd2e49a044f69b287a7bbfbfa22",
    "celebahq/1/g10" -> "84d4cd6e31e78fb5122b4afbb9f3b4b00b2f3569d89c3714d77a37948b266d37")

  private def mismatches(got: Map[String, String], pinned: Map[String, String]): Seq[String] =
    pinned.keys.toSeq.sorted.filter(k => !got.get(k).contains(pinned(k)))

  test("progressive and sequential encodings are byte-identical to the pinned format") {
    val prog = images.map { case (spec, id, img) =>
      s"${spec.name}/$id" -> sha256(Codec.frame(Codec.encodeProgressive(img, spec.quality)))
    }.toMap
    val seq = images.map { case (spec, id, img) =>
      s"${spec.name}/$id" -> sha256(Codec.encodeSequential(img, spec.quality))
    }.toMap
    val progChanged = mismatches(prog, progressiveSha)
    val seqChanged = mismatches(seq, sequentialSha)
    assert(progChanged.isEmpty, s"progressive bytes changed: $progChanged")
    assert(seqChanged.isEmpty, s"sequential bytes changed: $seqChanged")
  }

  test("decoded planes at scan groups 1, 2, 5 and 10 equal the pinned pixels") {
    val got = images.flatMap { case (spec, id, img) =>
      val scans = Codec.encodeProgressive(img, spec.quality)
      Groups.map { g =>
        val dec = Codec.decodeProgressive(scans.take(g), spec.quality, spec.width, spec.height)
        s"${spec.name}/$id/g$g" -> sha256(planeBytes(dec): _*)
      }
    }.toMap
    val changed = mismatches(got, decodedSha)
    assert(changed.isEmpty, s"decoded pixels changed: $changed")
  }

  test("every pinned stream decodes within its own bytes at every scan prefix and sequentially") {
    for ((spec, _, img) <- images) {
      val scans = Codec.encodeProgressive(img, spec.quality)
      for (g <- 1 to 10) Codec.decodeProgressive(scans.take(g), spec.quality, spec.width, spec.height)
      Codec.decodeSequential(Codec.encodeSequential(img, spec.quality), spec.quality, spec.width, spec.height)
    }
  }
}
