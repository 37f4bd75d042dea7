"""The orthogonal basis behind the clustering, shown on a small example.

Each merge step contributes one plane rotation; chaining the first k of
them gives an orthogonal map (the level-k basis).  Vectors expressed in
that basis concentrate their energy on the surviving "scaling" coordinates,
and the detail coordinates below a threshold can be dropped -- a lossy
compression aligned with the cluster structure.
"""

import numpy as np

from treelets import apply_basis, compress, decompose

# two tight groups: indices {0,1,2} and {3,4}
SIMILARITY = np.array(
    [
        [1.0, 0.9, 0.8, 0.0, 0.1],
        [0.9, 1.0, 0.9, 0.0, 0.0],
        [0.8, 0.9, 1.0, 0.1, 0.0],
        [0.0, 0.0, 0.1, 1.0, 0.9],
        [0.1, 0.0, 0.0, 0.9, 1.0],
    ]
)


def main():
    d = decompose(SIMILARITY)
    print(f"{d.stop_level} rotations recorded")
    for rec in d.records:
        print(f"  step {rec.step}: merged {rec.alpha} into {rec.beta} "
              f"(score {rec.score:.3f}, diagonals {rec.diag_alpha:.3f} <= {rec.diag_beta:.3f})")

    print("\nscaling set per level:")
    for k in range(d.stop_level + 1):
        print(f"  level {k}: {d.scaling_set(k)}")

    v = np.array([1.0, 1.0, 1.0, 0.0, 0.0])  # indicator of the first group
    print(f"\nvector {v}")
    for k in range(d.stop_level + 1):
        w = apply_basis(d, k, v)
        print(f"  level {k} coefficients: {np.round(w, 3)}  (norm {np.linalg.norm(w):.6f})")

    k = d.stop_level
    sparse = compress(d, k, v, epsilon=0.2)
    dense = apply_basis(d, k, v)
    print(f"\ncompressed at level {k} with threshold 0.2: {np.round(sparse, 3)}")
    print(f"kept {np.count_nonzero(sparse)} of {len(v)} coordinates, "
          f"reconstruction error {np.linalg.norm(sparse - dense):.4f}")

    b = d.basis_matrix(k)
    print(f"basis orthogonality |B Bt - I|_max = {np.abs(b @ b.T - np.eye(5)).max():.2e}")


if __name__ == "__main__":
    main()
