package repro.train

/** Gradient-direction similarity across data fidelities (§4.3).
  *
  * The model is frozen at its current parameters; the full-dataset loss
  * gradient is measured on the reference (highest-fidelity) data and on a
  * candidate scan's data, and compared by cosine similarity. The paper
  * keeps scans whose similarity stays above a threshold (default 0.8).
  */
object GradientSimilarity {

  def cosine(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, "vector size mismatch")
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    val denom = math.sqrt(na) * math.sqrt(nb)
    if (denom == 0) 0.0 else dot / denom
  }
}
