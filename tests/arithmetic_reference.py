"""Test references for the arithmetic the package does inline: rising
factorials and complete homogeneous sums, each spelled out plainly."""


def pochhammer(a, j: int):
    """Rising factorial a(a+1)...(a+j-1); the empty product (j=0) is 1.

    a may be an int or a Fraction; j is an int >= 0.
    """
    if j < 0:
        raise ValueError(f"need j >= 0, got {j}")
    result = a - a + 1  # 1 in the arithmetic type of a
    for i in range(j):
        result *= a + i
    return result


def complete_homogeneous(values, degree: int):
    """h_degree(values): the sum of all monomials of the given total degree.

    Computed through the generating function 1 / prod(1 - c_i t), one value at
    a time; exact for int and Fraction inputs. The degree is an int >= 0.
    """
    if degree < 0:
        raise ValueError(f"need degree >= 0, got {degree}")
    h = [1] + [0] * degree
    for c in values:
        for j in range(1, degree + 1):
            h[j] += c * h[j - 1]
    return h[degree]
