package repro.core

import java.nio.file.{Files, Path, Paths, StandardCopyOption}
import java.util.UUID

import scala.reflect.ClassTag

import org.apache.spark.sql.SparkSession

/** The one way record files are written: PCR records, the TFRecord-like
  * baseline (so that Fig. 22 compares them like for like) and File-per-Image
  * files, which are records of one image.
  *
  * Ids are contiguous, so record `r` holds ids `[r·ipr, min(n, (r+1)·ipr))`.
  * An RDD job over `sparkContext.parallelize(0L until nRecords, nRecords)`
  * runs one task per record: the task derives its ids, builds the record's
  * bytes, writes them to `outDir/record-NNNNN.<ext>` and returns a small
  * per-record result. The job runs no SQL and shuffles nothing, and pixels
  * never leave the task that generates them.
  */
object RecordWriter {

  /** Write every record of an `n`-image dataset with `serialize` (record
    * ids → file bytes) and return `result(path, recordIndex, bytes)` for
    * each record, in record order.
    */
  def writeRecords[R: ClassTag](
      spark: SparkSession,
      n: Long,
      imagesPerRecord: Int,
      outDir: String,
      ext: String)(
      serialize: Seq[Long] => Array[Byte])(
      result: (String, Long, Array[Byte]) => R): Seq[R] = {
    Files.createDirectories(Paths.get(outDir))
    val nRecords = (n + imagesPerRecord - 1) / imagesPerRecord
    spark.sparkContext.parallelize(0L until nRecords, nRecords.toInt)
      .map { rec =>
        val first = rec * imagesPerRecord
        val bytes = serialize(first until math.min(n, first + imagesPerRecord))
        val path = Paths.get(outDir, f"record-$rec%05d.$ext")
        writeAtomically(path, bytes)
        result(path.toString, rec, bytes)
      }
      .collect().toSeq
  }

  /** Write `bytes` to `path` so that readers see either no file or the
    * whole record: the bytes go to a temp file in the same directory, whose
    * name does not end in the record extension, which is then renamed into
    * place. The temp file is removed if the write or the rename fails.
    */
  def writeAtomically(path: Path, bytes: Array[Byte]): Unit = {
    val tmp = path.resolveSibling(s".${path.getFileName}.${UUID.randomUUID()}.tmp")
    try {
      Files.write(tmp, bytes)
      Files.move(tmp, path, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    } finally Files.deleteIfExists(tmp)
  }
}
