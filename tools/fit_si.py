"""Print the octave fits behind `gmclab.spectral._si` (needs mpmath).

    python tools/fit_si.py

For x >= 4 the sine integral is Si(x) = pi/2 - f(x) cos x - g(x) sin x,
with the auxiliary functions

    f(x) = Ci(x) sin x - (Si(x) - pi/2) cos x,
    g(x) = -Ci(x) cos x - (Si(x) - pi/2) sin x.

On each octave 2^(e-1) <= x < 2^e, e = 3..6, this fits F = x f(x) and
G = x^2 g(x) by degree-15 Chebyshev interpolation (mpmath.chebyfit, 50
digits) in t = 2^(e+1) / x - 3, which runs over (-1, 1], and prints the
monomial coefficients in t, lowest degree first, as `_SI_OCTAVES[e - 3]`
= (F coefficients, G coefficients).  The fit error bound printed for each
octave is that of f and g, |error of F| / x and |error of G| / x^2 at the
octave's lower end.
"""

import mpmath as mp

mp.mp.dps = 50
DEGREE = 15


def aux(x):
    si, ci = mp.si(x), mp.ci(x)
    rest = si - mp.pi / 2
    return (ci * mp.sin(x) - rest * mp.cos(x),
            -ci * mp.cos(x) - rest * mp.sin(x))


def main():
    print("_SI_OCTAVES = np.array([")
    for e in range(3, 7):
        scale = mp.mpf(2) ** (e + 1)

        def x_of(t):
            return scale / (t + 3)

        fits = []
        for i, power in ((0, 1), (1, 2)):
            coef, err = mp.chebyfit(
                lambda t: aux(x_of(t))[i] * x_of(t) ** power, [-1, 1],
                DEGREE + 1, error=True)
            fits.append((coef[::-1], err / mp.mpf(2) ** ((e - 1) * power)))
        print(f"    # {2 ** (e - 1)} <= x < {2 ** e}: fit errors "
              f"{mp.nstr(fits[0][1], 2)} (f), {mp.nstr(fits[1][1], 2)} (g)")
        rows = ["[" + ",\n      ".join(
            ", ".join(repr(float(c)) for c in coef[k:k + 3])
            for k in range(0, len(coef), 3)) + "]" for coef, _ in fits]
        print("    [" + ",\n     ".join(rows) + "],")
    print("])")


if __name__ == "__main__":
    main()
