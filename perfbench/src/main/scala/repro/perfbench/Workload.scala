package repro.perfbench

import repro.imaging.{DatasetSpec, SyntheticImages}

/** One benchmark workload: a synthetic dataset, the scale it is generated
  * at and the scan group it is read at.
  *
  * Both workloads run every operation (set-up encode, DSv2 scan, training
  * epoch, label query, single-record reads), so every metric exists on
  * both; what differs is which layer does most of the work.
  */
final case class Workload(name: String, spec: DatasetSpec, sf: Double, scanGroup: Int) {
  def nImages: Int = spec.numImages(sf)
  def nRecords: Int = (nImages + spec.imagesPerRecord - 1) / spec.imagesPerRecord
}

object Workload {

  /** Scale factors are chosen so that set-up, the timed phase and the
    * correctness gate fit one run in under a minute on four cores, and so
    * that the record count is a multiple of four (no half-empty last wave
    * of scan tasks).
    */
  val all: Seq[Workload] = Seq(
    // Scan group 1: every block is DC-only, so dequantize+IDCT dominates
    // decode and file bytes per image are smallest.
    Workload("imagenet-g1", SyntheticImages.imagenet, sf = 0.16, scanGroup = 1),
    // Full fidelity of the largest, quality-100 images: entropy decode about
    // equals IDCT and file bytes per image are ~100x those of imagenet-g1.
    // Records hold 16 images instead of 64 so that a 100-sample closed loop
    // of single-record reads fits one run; 32 records also give the scan
    // eight tasks per core, which exposes scheduling and straggler effects.
    Workload("ham10000-g10", SyntheticImages.ham10000.copy(imagesPerRecord = 16), sf = 0.64, scanGroup = 10))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (know: ${all.map(_.name).mkString(", ")})"))
}
