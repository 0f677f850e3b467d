"""What each prior family does when the conflict becomes extreme.

Two ways a located, scaled prior can disagree with the data: its location
drifts away (mu -> infinity), or it concentrates hard on the wrong place
(lam -> infinity).  Along a `ConflictPath`, mu = a + b omega and
lam = c + d omega, a rejected prior's factor (lam/sigma) g((lam/sigma)
(beta - mu)) tends to g(ref) (lam/sigma)^-k, and `prior_ratio` divides it by
that law, so every ratio tends to 1:

* Student, drifting location: k = gamma, ref = mu; the posterior keeps a
  sigma^gamma trace, a partial resolution;
* LPTN, drifting location: k = 0, whole robustness, at a log-slow rate;
* LPTN, exploding scaling: another law, a collapse like 1/|beta - mu| at a
  painfully slow log rate (the companion column);
* CTN, either conflict: k = -1, and the ratio hits 1 exactly at a finite
  threshold.

Run:  python demos/02_conflict_asymptotics.py
"""

from robustpriors import (CTN, LPTN, ConflictPath, Student,
                          lptn_scaling_trace, prior_ratio)

print("Student location drift (lam=2, sigma=1, gamma=4): k = 4")
s = prior_ratio(ConflictPath(b=1.0, c=2.0), Student(4.0), 1.0)
for w, r in zip(s.omega, s.ratio):
    print(f"  mu = {w:10.0f}   ratio = {r:.6f}")

print("\nLPTN location drift (lam=1, sigma=1, rho=0.95): k = 0")
s = prior_ratio(ConflictPath(b=1.0), LPTN(0.95), 1.0)
for w, r in zip(s.omega, s.ratio):
    print(f"  mu = {w:10.0f}   ratio = {r:.6f}")

print("\nLPTN scaling collapse at |beta - mu| = 0.5: companion -> 1, slowly")
tr = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95)
for lam, dens, comp in zip(tr.lam, tr.density, tr.companion.ratio):
    print(f"  lam = {lam:8.0e}   density = {dens:.3e}   "
          f"companion = {comp:.4f}")

print("\nCTN scaling (mu=0.5, lam=1+omega): exact once the offset passes kappa")
fam = CTN(0.98)
path = ConflictPath(a=0.5, c=1.0, d=1.0)
s = prior_ratio(path, fam, 0.0, omega_grid=[0.0, 2.0, 4.0, 49.0])
for lam, r in zip(path.lam(s.omega), s.ratio):
    inside = lam * 0.5 <= fam.kappa
    note = "inside matching interval" if inside else "constant tail: exact"
    print(f"  lam = {lam:6.1f}   ratio = {r:.6f}   ({note})")
