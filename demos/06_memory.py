"""Memory accounting for both architectures.

The headline quantity is parameter storage: float32 parameters against
int8 weight codes + int32 bias codes, with the per-layer 256-byte
activation LUTs reported both ways. Per-sample step timings for both
representations are measured by bench/run.py (see bench/README.md).
"""

from qmlp import build_model, memory_report, quantize_model

for arch in ("cogdist", "car_evaluation"):
    m = build_model(arch, 0)
    rep = memory_report(m, quantize_model(m))
    print(f"{arch}:")
    print(f"  float32 parameters:        {rep.full_bytes:>6} B")
    print(f"  int8 params + LUTs:        {rep.quantized_bytes:>6} B  ({rep.ratio:.2f}x smaller)")
    print(f"  int8 params only:          {rep.quantized_bytes_excl_lut:>6} B  "
          f"({rep.ratio_excl_lut:.2f}x smaller)")
