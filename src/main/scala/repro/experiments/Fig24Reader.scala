package repro.experiments

import repro.core.{PcrDecoder, PcrEncoder}

/** Figure 24 / §A.5: reader microbenchmark — raw PCR prefix reads with no
  * pixel decoding. The reader's work is file IO plus memcpy-style scan
  * regrouping, so throughput in images/s scales inversely with the bytes
  * each scan group drags in.
  */
final case class ReaderRate(
    scanGroup: Int,
    imagesPerSec: Double,
    megabytesPerSec: Double)

object Fig24Reader {

  /** Reads of every record per trial: one read is tens of microseconds. */
  private val Passes = 10

  def run(pcrDir: String): Seq[ReaderRate] = {
    val records = PcrEncoder.listRecords(pcrDir)
    require(records.nonEmpty, s"no records under $pcrDir")
    // Images and prefix bytes read by `Passes` reads of every record at `g`.
    def readAll(g: Int): (Long, Long) = {
      var images = 0L
      var bytes = 0L
      for (_ <- 0 until Passes; p <- records) {
        val (header, entries) = PcrDecoder.readRecordRaw(p, g)
        images += entries.size
        bytes += header.prefixLength(math.min(g, header.nScanGroups))
      }
      (images, bytes)
    }
    val best = bestOf5(ReportedScans.map(g => () => timed(readAll(g))._2))
    ReportedScans.zip(best).map { case (g, sec) =>
      val (images, bytes) = readAll(g)
      ReaderRate(g, images / sec, bytes / sec / 1e6)
    }
  }

  def render(rows: Seq[ReaderRate]): String =
    markdownTable(Seq("Scan group", "images/s", "MB/s"), rows.map(r =>
      Seq(f"${r.scanGroup}%10d", f"${r.imagesPerSec}%8.0f", f"${r.megabytesPerSec}%4.0f")))
}
