package repro.jpeg

/** The original dense 8×8 DCT-II and inverse: plain matrix products over
  * a 2-D basis, allocating per call. It is the oracle that [[Dct]], which
  * skips zero terms and works in caller buffers, must match bit for bit.
  *
  * `C(u,x) = c(u)/2 * cos((2x+1)uπ/16)` with `c(0)=1/√2`, so `F = C f Cᵀ`
  * and `f = Cᵀ F C`. The transform is exactly orthonormal, which keeps the
  * quantized-coefficient round trip (encode → decode at full fidelity)
  * deterministic to within rounding of the quantizer alone.
  */
object ReferenceDct {
  final val N = 8

  private val basis: Array[Array[Double]] = Array.tabulate(N, N) { (u, x) =>
    val c = if (u == 0) 1.0 / math.sqrt(2.0) else 1.0
    c / 2.0 * math.cos((2 * x + 1) * u * math.Pi / 16.0)
  }

  /** Forward DCT of one 8×8 block (row-major, length 64). */
  def forward(block: Array[Double]): Array[Double] = {
    require(block.length == 64, s"block must be 8x8, got ${block.length}")
    val tmp = new Array[Double](64) // tmp = C * f
    var u = 0
    while (u < N) {
      var y = 0
      while (y < N) {
        var s = 0.0; var x = 0
        while (x < N) { s += basis(u)(x) * block(x * N + y); x += 1 }
        tmp(u * N + y) = s; y += 1
      }
      u += 1
    }
    val out = new Array[Double](64) // out = tmp * Cᵀ
    u = 0
    while (u < N) {
      var v = 0
      while (v < N) {
        var s = 0.0; var y = 0
        while (y < N) { s += tmp(u * N + y) * basis(v)(y); y += 1 }
        out(u * N + v) = s; v += 1
      }
      u += 1
    }
    out
  }

  /** Inverse DCT of one 8×8 coefficient block (row-major, length 64). */
  def inverse(coef: Array[Double]): Array[Double] = {
    require(coef.length == 64, s"block must be 8x8, got ${coef.length}")
    val tmp = new Array[Double](64) // tmp = Cᵀ * F
    var x = 0
    while (x < N) {
      var v = 0
      while (v < N) {
        var s = 0.0; var u = 0
        while (u < N) { s += basis(u)(x) * coef(u * N + v); u += 1 }
        tmp(x * N + v) = s; v += 1
      }
      x += 1
    }
    val out = new Array[Double](64) // out = tmp * C
    x = 0
    while (x < N) {
      var y = 0
      while (y < N) {
        var s = 0.0; var v = 0
        while (v < N) { s += tmp(x * N + v) * basis(v)(y); v += 1 }
        out(x * N + y) = s; y += 1
      }
      x += 1
    }
    out
  }
}
