package repro.core

import java.nio.ByteBuffer
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

import repro.imaging.{DatasetSpec, PlanarImage, SyntheticImages}
import repro.jpeg.Codec

/** The baseline storage layouts the paper compares against (§2, Figure 2):
  * a TFRecord-like sequential record format and a File-per-Image directory.
  * Both carry baseline (sequential) JPEG payloads at a fixed fidelity —
  * the defining limitation PCRs remove.
  */
object BaselineFormats {

  val RecordMagic: Int = 0x54465231 // "TFR1"

  // ------------------------------------------------------- TFRecord-like

  /** Record file layout: magic, image count, dims/quality, then per image
    * `[id long][label int][len int][sequential JPEG payload]`.
    */
  def serializeRecord(
      width: Int, height: Int, quality: Int,
      images: Seq[(Long, Int, Array[Byte])]): Array[Byte] = {
    val total = 24 + images.map(i => 16 + i._3.length).sum
    val bb = ByteBuffer.allocate(total)
    bb.putInt(RecordMagic).putInt(images.size).putInt(width).putInt(height).putInt(quality)
    bb.putInt(0) // reserved
    images.foreach { case (id, label, payload) =>
      bb.putLong(id).putInt(label).putInt(payload.length).put(payload)
    }
    bb.array()
  }

  def parseRecord(bytes: Array[Byte]): (Int, Int, Int, Seq[(Long, Int, Array[Byte])]) = {
    val bb = ByteBuffer.wrap(bytes)
    require(bb.getInt() == RecordMagic, "not a TFR1 record")
    val n = bb.getInt(); val w = bb.getInt(); val h = bb.getInt(); val q = bb.getInt()
    bb.getInt() // reserved
    val images = (0 until n).map { _ =>
      val id = bb.getLong(); val label = bb.getInt(); val len = bb.getInt()
      val payload = new Array[Byte](len)
      bb.get(payload)
      (id, label, payload)
    }
    (w, h, q, images)
  }

  /** Encode `spec` at `sf` as TFRecord-like files (one per record group),
    * optionally re-encoding at an overridden JPEG quality (the paper's
    * static-compression baselines of Fig 22). Returns (path, bytes) pairs.
    */
  def writeTfRecordLike(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      outDir: String,
      seed: Long = 0L,
      qualityOverride: Option[Int] = None): Seq[(String, Long)] = {
    val q = qualityOverride.getOrElse(spec.quality)
    RecordWriter.writeRecords(spark, spec.numImages(sf), spec.imagesPerRecord, outDir, "tfr") { ids =>
      serializeRecord(spec.width, spec.height, q,
        ids.zip(SyntheticImages.generateAll(spec, ids, seed)).map { case (id, img) =>
          (id, SyntheticImages.label(spec, id), Codec.encodeSequential(img, q))
        })
    }((path, _, bytes) => (path, bytes.length.toLong))
  }

  /** Sequential JPEG payload bytes of each image of a TFRecord-like file. */
  def payloadBytes(path: String): Seq[Long] =
    parseRecord(Files.readAllBytes(Paths.get(path)))._4.map(_._3.length.toLong)

  /** Decode every image of a TFRecord-like file. */
  def readTfRecordLike(path: String): Seq[(Long, Int, PlanarImage)] = {
    val bytes = Files.readAllBytes(Paths.get(path))
    val (w, h, q, images) = parseRecord(bytes)
    images.map { case (id, label, payload) =>
      (id, label, Codec.decodeSequential(payload, q, w, h))
    }
  }

  // ------------------------------------------------------ File-per-Image

  /** Encode `spec` at `sf` as one sequential-JPEG file per image plus a
    * `labels.csv` of `id,label` lines. Each image is a one-image record of
    * [[RecordWriter]]: image `id` is written atomically by one task to
    * `outDir/record-NNNNN.jpg`, NNNNN being its id. Returns (path, bytes)
    * pairs in id order.
    */
  def writeFilePerImage(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      outDir: String,
      seed: Long = 0L): Seq[(String, Long)] = {
    val n = spec.numImages(sf)
    val files = RecordWriter.writeRecords(spark, n, 1, outDir, "jpg") { ids =>
      Codec.encodeSequential(SyntheticImages.generate(spec, ids.head, seed), spec.quality)
    }((path, _, bytes) => (path, bytes.length.toLong))
    val labels = (0L until n).map(id => s"$id,${SyntheticImages.label(spec, id)}")
    RecordWriter.writeAtomically(Paths.get(outDir, "labels.csv"), labels.mkString("\n").getBytes)
    files
  }
}
