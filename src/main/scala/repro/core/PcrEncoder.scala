package repro.core

import java.nio.file.{Files, Paths}

import org.apache.spark.sql.SparkSession

import repro.imaging.{DatasetSpec, SyntheticImages}
import repro.jpeg.Codec

/** Where one encoded record landed and how large each fidelity prefix is. */
final case class RecordManifest(
    path: String,
    recordIndex: Long,
    nImages: Int,
    totalBytes: Long,
    groupEndOffsets: Seq[Long]) {
  def prefixBytes(scanGroup: Int): Long = groupEndOffsets(scanGroup)

  /** Entropy-coded bytes of scan groups 1..g summed over the record's images:
    * the prefix past the header, less each group's length table of one
    * 4-byte length per image (the [[PcrRecord]] layout).
    */
  def scanBytes(scanGroup: Int): Long =
    prefixBytes(scanGroup) - prefixBytes(0) - 4L * nImages * scanGroup
}

/** The PCR encoder (§5 "Encoding") as one [[RecordWriter]] job.
  *
  * Each record of `spec.imagesPerRecord` contiguous ids is one task of that
  * RDD job: it generates the pixels, progressive-encodes them, gathers the
  * scans into scan groups, serializes the record with its offset index and
  * writes the file. Nothing is shuffled and no SQL runs.
  */
object PcrEncoder {

  /** Encode dataset `spec` at scale `sf` into `outDir/record-NNNNN.pcr`.
    * Returns one manifest per record, ordered by record index.
    */
  def encodeDataset(
      spark: SparkSession,
      spec: DatasetSpec,
      sf: Double,
      outDir: String,
      seed: Long = 0L): Seq[RecordManifest] = {
    RecordWriter.writeRecords(spark, spec.numImages(sf), spec.imagesPerRecord, outDir, "pcr") { ids =>
      PcrRecord.serialize(spec.width, spec.height, spec.quality, ids.map { id =>
        val img = SyntheticImages.generate(spec, id, seed)
        PcrImageEntry(id, SyntheticImages.label(spec, id), Codec.encodeProgressive(img, spec.quality))
      })
    } { (path, rec, bytes) =>
      val header = PcrRecord.parseHeader(bytes)
      RecordManifest(path, rec, header.nImages, bytes.length.toLong, header.groupEndOffsets.toSeq)
    }
  }

  /** List the record files of an encoded dataset directory, sorted. */
  def listRecords(dir: String): Seq[String] = {
    import scala.jdk.CollectionConverters._
    val d = Paths.get(dir)
    require(Files.isDirectory(d), s"not a PCR directory: $dir")
    val s = Files.list(d)
    try s.iterator().asScala.map(_.toString).filter(_.endsWith(".pcr")).toSeq.sorted
    finally s.close()
  }
}
