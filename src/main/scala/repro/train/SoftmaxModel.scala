package repro.train

/** Multinomial logistic regression over pixel features.
  *
  * The paper's autotuner only needs a model whose loss gradient reacts to
  * the frequency content compression removes; softmax regression gives
  * exact gradients (no minibatch noise in the similarity measurements) and
  * trains deterministically.
  *
  * Parameters are a flat array `[W (nClasses × dim) | b (nClasses)]` so
  * merging two partition partials of a gradient is a single array-add.
  */
final case class SoftmaxParams(nClasses: Int, dim: Int, theta: Array[Double]) {
  require(theta.length == nClasses * dim + nClasses, "parameter size mismatch")
  def w(c: Int, j: Int): Double = theta(c * dim + j)
  def b(c: Int): Double = theta(nClasses * dim + c)
}

object SoftmaxModel {

  def init(nClasses: Int, dim: Int): SoftmaxParams =
    SoftmaxParams(nClasses, dim, new Array[Double](nClasses * dim + nClasses))

  /** Class scores (logits) for one example. */
  def logits(p: SoftmaxParams, x: Array[Double]): Array[Double] = {
    require(x.length == p.dim, s"feature dim ${x.length} != model dim ${p.dim}")
    val out = new Array[Double](p.nClasses)
    var c = 0
    while (c < p.nClasses) {
      var s = p.theta(p.nClasses * p.dim + c)
      val base = c * p.dim
      var j = 0
      while (j < p.dim) { s += p.theta(base + j) * x(j); j += 1 }
      out(c) = s
      c += 1
    }
    out
  }

  private def softmaxInPlace(z: Array[Double]): Unit = {
    var max = z(0); var i = 1
    while (i < z.length) { if (z(i) > max) max = z(i); i += 1 }
    var sum = 0.0; i = 0
    while (i < z.length) { z(i) = math.exp(z(i) - max); sum += z(i); i += 1 }
    i = 0
    while (i < z.length) { z(i) /= sum; i += 1 }
  }

  /** Add this example's cross-entropy gradient into `gradAcc` (same layout
    * as `theta`) and return its loss. The caller divides by the count.
    */
  def accumulate(p: SoftmaxParams, x: Array[Double], label: Int, gradAcc: Array[Double]): Double = {
    val z = logits(p, x)
    softmaxInPlace(z)
    val loss = -math.log(math.max(z(label), 1e-300))
    var c = 0
    while (c < p.nClasses) {
      val err = z(c) - (if (c == label) 1.0 else 0.0)
      val base = c * p.dim
      var j = 0
      while (j < p.dim) { gradAcc(base + j) += err * x(j); j += 1 }
      gradAcc(p.nClasses * p.dim + c) += err
      c += 1
    }
    loss
  }

  def predict(p: SoftmaxParams, x: Array[Double]): Int = {
    val z = logits(p, x)
    var best = 0; var c = 1
    while (c < z.length) { if (z(c) > z(best)) best = c; c += 1 }
    best
  }

  /** Gradient-descent step with L2 regularization: θ ← θ − lr (g + λθ). */
  def step(p: SoftmaxParams, grad: Array[Double], lr: Double, l2: Double): SoftmaxParams = {
    require(grad.length == p.theta.length, "gradient size mismatch")
    val out = new Array[Double](p.theta.length)
    var i = 0
    while (i < out.length) { out(i) = p.theta(i) - lr * (grad(i) + l2 * p.theta(i)); i += 1 }
    p.copy(theta = out)
  }
}
