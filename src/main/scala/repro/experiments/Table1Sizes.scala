package repro.experiments

import repro.core.ScanSizeStats

/** Table 1: per-scan size-reduction factors and mean image size E[s(x)]
  * of each dataset, from [[repro.core.ScanSizes]] measurements.
  */
object Table1Sizes {

  def render(rows: Seq[ScanSizeStats]): String =
    markdownTable(Seq("Dataset", "Scan 1", "Scan 2", "Scan 5", "Scan 10", "E[s(x)]"), rows.map { s =>
      Seq(f"${s.dataset}%-9s", f"${s.reductionFactor(1)}%5.1fx", f"${s.reductionFactor(2)}%5.1fx",
        f"${s.reductionFactor(5)}%5.1fx", f"${s.reductionFactor(10)}%5.1fx",
        f"${s.meanFullBytes / 1000.0}%7.2f kB")
    })
}
