"""Expression corpus shared by the parser round-trip tests."""

VDW_SOURCE = "(exp(S/k)/(V-b))^(2/3) - a/V"
KN_SOURCE = "sqrt(pi*J^2/S + (S/(4*pi))*(1 + pi*Q^2/S)^2)"

CORPUS = [
    VDW_SOURCE,
    KN_SOURCE,
    "a/V",
    "S + V",
    "S - V - k",
    "S*V*k",
    "S/V/k",
    "2^3^2",
    "(2^3)^2",
    "-S^2",
    "(-S)^2",
    "-(S + V)",
    "--S",
    "2*-3 + S",
    "exp(S)",
    "ln(V - b)",
    "sqrt(S^2 + V^2)",
    "sin(theta)^2",
    "cos(theta)*sin(theta)",
    "exp(S/k)/(V-b)",
    "1e-3*S + 2.5E2",
    ".5*V",
    "pi*Q^2/S",
    "S^(1/2)",
    "S^V",
    # a power of two jets that both carry derivatives, and a number's power,
    # difference and quotient with a jet: every operand kind of every operation
    "(S*V + J^2)^(Q*theta - S/V)",
    "2^(1 - S) - ln(k)/V",
    # x^0 of a failed x fails too, alone and in a batch
    "ln(S)^0",
    "V^(-2)",
    "a*b*c + d*e*f",
    "(a + b)*(c - d)",
    "a - (b - c)",
    "a/(b*c)",
    "1/(16*pi^2)",
    "exp(ln(sqrt(S)))",
    "S^2^3",
    "3*pi^2*J^4/S^4 + 3*J^2/(2*S^2) - 1/(16*pi^2)",
    "sqrt(pi)*Q/sqrt(S)",
    # constants that overflow: inf, as over a variable, and never a traceback
    "S*exp(1000)",
    "10^400 + S",
]
