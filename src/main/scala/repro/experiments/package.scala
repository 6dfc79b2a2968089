package repro

import repro.core.RecordManifest

/** What the experiment harnesses share: the scan groups they report, the
  * paper-testbed scaling of the simulated ones, the wall-clock trial loop
  * of the measured ones and the markdown table they print.
  */
package object experiments {

  /** The scan groups the paper reports every result at (Tables 1–2;
    * Figs 5, 13, 16, 24).
    */
  val ReportedScans: Seq[Int] = Seq(1, 2, 5, 10)

  /** Epochs of every simulated loader run (Figs 5, 16 and §7). */
  val SimulatedEpochs = 3

  /** The paper's mean ImageNet image size (Table 1). */
  val PaperMeanImageBytes: Double = 110e3

  /** Mean full-fidelity image size of an encoded dataset: record bytes over images. */
  def meanImageBytes(manifests: Seq[RecordManifest]): Double =
    manifests.map(_.totalBytes).sum.toDouble / manifests.map(_.nImages.toLong).sum

  /** A paper-testbed bandwidth scaled by our mean image size over the
    * paper's, so the testbed's IO-vs-compute balance is kept while every
    * byte count comes from our records.
    */
  def scaledBandwidth(paperBandwidth: Double, manifests: Seq[RecordManifest]): Double =
    paperBandwidth * meanImageBytes(manifests) / PaperMeanImageBytes

  /** Run `work` once and return its result with its wall time in seconds. */
  def timed[A](work: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = work
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Each configuration's best of 5 trials; a configuration runs its work
    * once and returns the seconds it took.
    *
    * Two untimed rounds first warm the JIT on every configuration, since
    * mid-measurement compilation otherwise dominates the signal. Each round
    * runs every configuration in turn, so load drift during the measurement
    * reaches all of them alike instead of landing between the rates a table
    * compares. The minimum filters out GC pauses and JIT jitter.
    */
  def bestOf5(configs: Seq[() => Double]): Seq[Double] = {
    (0 until 2).foreach(_ => configs.foreach(_()))
    val best = Array.fill(configs.size)(Double.MaxValue)
    for (_ <- 0 until 5; (run, i) <- configs.zipWithIndex) best(i) = math.min(best(i), run())
    best.toSeq
  }

  /** A markdown table of `header` over `rows` of formatted cells. Each
    * header cell and the dash row are as wide as the widest cell of their
    * column; row cells print as formatted, so a cell narrower than its
    * column is not padded.
    */
  def markdownTable(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val widths = header.indices.map(i => (header +: rows).map(_(i).length).max)
    def line(cells: Seq[String]): String = cells.mkString("| ", " | ", " |")
    (line(header.zip(widths).map { case (h, w) => h.padTo(w, ' ') }) +:
      widths.map(w => "-" * (w + 2)).mkString("|", "|", "|") +:
      rows.map(line)).mkString("\n")
  }
}
