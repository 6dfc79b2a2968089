package repro.core

import org.apache.spark.rdd.RDD

import repro.train.{GradientSimilarity, LabeledVec, SoftmaxModel, SoftmaxParams, Trainer}

/** The paper's runtime fidelity autotuner (§4.3, §6.5): start at the
  * highest scan, and periodically pick the lowest scan group whose
  * frozen-parameter gradient stays within a cosine-similarity threshold of
  * the full-fidelity gradient. One hyperparameter (the threshold, default
  * 0.8), no validation data, tuned every `tunePeriod` epochs after a
  * `warmupEpochs` warmup.
  */
final case class AutotuneConfig(
    threshold: Double = 0.8,
    warmupEpochs: Int = 5,
    tunePeriod: Int = 20,
    candidateScans: Seq[Int] = Seq(1, 2, 5, 10)) {
  require(threshold > 0 && threshold <= 1, "threshold must be in (0,1]")
  require(candidateScans.nonEmpty, "need candidate scans")
  def referenceScan: Int = candidateScans.max
}

object Autotuner {

  /** Lowest candidate scan whose similarity meets the threshold; falls back
    * to the reference scan when none does.
    */
  def chooseScan(sims: Seq[(Int, Double)], threshold: Double): Int = {
    require(sims.nonEmpty, "no similarities measured")
    sims.sortBy(_._1).collectFirst { case (g, s) if s >= threshold => g }
      .getOrElse(sims.map(_._1).max)
  }

  /** True on epochs where the tuner re-measures similarities. */
  def shouldTune(epoch: Int, cfg: AutotuneConfig): Boolean =
    epoch == cfg.warmupEpochs ||
      (epoch > cfg.warmupEpochs && (epoch - cfg.warmupEpochs) % cfg.tunePeriod == 0)

  /** score(D, D') of §4.3 for each of `scans`: the cosine between the
    * frozen-parameter gradients on `byScan(reference)` and on that scan's
    * data. The reference scan scores 1 without a second gradient.
    */
  def similarities(
      byScan: Map[Int, RDD[LabeledVec]],
      scans: Seq[Int],
      reference: Int,
      params: SoftmaxParams): Map[Int, Double] = {
    val (gRef, _, _) = Trainer.gradient(byScan(reference), params)
    scans.map { g =>
      if (g == reference) g -> 1.0
      else {
        val (gCand, _, _) = Trainer.gradient(byScan(g), params)
        g -> GradientSimilarity.cosine(gRef, gCand)
      }
    }.toMap
  }

  /** One epoch of an autotuned run, as observed by the harness. */
  final case class TuneStat(
      epoch: Int,
      scanGroup: Int,
      loss: Double,
      epochSeconds: Double,
      similarities: Map[Int, Double])

  /** Train with dynamic scan selection.
    *
    * @param byScan       per-candidate-scan training data (same ids/labels,
    *                     different fidelity)
    * @param epochSeconds simulated wall time of one epoch at a given scan
    *                     (from the queueing model + measured scan sizes)
    */
  def train(
      byScan: Map[Int, RDD[LabeledVec]],
      params0: SoftmaxParams,
      epochs: Int,
      lr: Double,
      l2: Double,
      cfg: AutotuneConfig,
      epochSeconds: Int => Double): (SoftmaxParams, Vector[TuneStat]) = {
    require(cfg.candidateScans.forall(byScan.contains), "missing candidate scan data")
    var p = params0
    var scan = cfg.referenceScan
    val stats = Vector.newBuilder[TuneStat]
    var e = 0
    while (e < epochs) {
      var sims = Map.empty[Int, Double]
      if (shouldTune(e, cfg)) {
        sims = similarities(byScan, cfg.candidateScans, cfg.referenceScan, p)
        scan = chooseScan(sims.toSeq, cfg.threshold)
      }
      val (g, loss, _) = Trainer.gradient(byScan(scan), p)
      p = SoftmaxModel.step(p, g, lr, l2)
      stats += TuneStat(e, scan, loss, epochSeconds(scan), sims)
      e += 1
    }
    (p, stats.result())
  }
}
