/* Bit-packed {0,1,x} cone kernel (see repro/sim/packed.py).
 *
 * The state is a uint64 array of shape (2 * (n_nodes + 2), 3, w): row 2i
 * holds node i's d1 ("definitely one") words, row 2i + 1 its p1
 * ("possibly one") words, for each of the 3 triple positions.  Lane j of
 * a row is bit j % 64 of word j / 64.
 *
 * The gate program is a flat int64 array, one record per gate in level
 * order:
 *
 *     op, n_in, out_row, a_0, b_0, a_1, b_1, ...
 *
 * out_row is the output's d1 row (its p1 row is out_row + 1); (a_i, b_i)
 * are the fanin's (d1, p1) rows, already swapped to (p1, d1) for NAND and
 * NOR so that NAND = ~AND(swapped) and NOR = ~OR(swapped) plane by plane.
 */

#include <stdint.h>
#include <string.h>

enum { OP_AND = 0, OP_NAND = 1, OP_OR = 2, OP_NOR = 3, OP_XOR = 4, OP_XNOR = 5 };

/* Ternary codes of repro.algebra.ternary. */
enum { CODE_ZERO = 0, CODE_ONE = 1 };

static void pack(const int8_t *codes, int64_t n_pis, int64_t k,
                 const int64_t *pi_rows, uint64_t *state, int64_t w)
{
    const int64_t row = 3 * w;
    for (int64_t i = 0; i < n_pis; i++) {
        uint64_t *d1 = state + pi_rows[i] * row;
        uint64_t *p1 = d1 + row;
        for (int64_t pos = 0; pos < 3; pos++) {
            const int8_t *lane = codes + (i * 3 + pos) * k;
            for (int64_t word = 0; word < w; word++) {
                const int64_t base = 64 * word;
                const int64_t end = k - base < 64 ? k - base : 64;
                uint64_t d = 0, p = 0;
                /* Branch-free: trial batches are random-looking bytes. */
                for (int64_t b = 0; b < end; b++) {
                    d |= (uint64_t)(lane[base + b] == CODE_ONE) << b;
                    p |= (uint64_t)(lane[base + b] != CODE_ZERO) << b;
                }
                d1[pos * w + word] = d;
                p1[pos * w + word] = p;
            }
        }
    }
}

static void evaluate(uint64_t *state, int64_t w, const int64_t *prog, int64_t n_gates)
{
    const int64_t row = 3 * w;
    for (int64_t g = 0; g < n_gates; g++) {
        const int64_t op = prog[0];
        const int64_t n_in = prog[1];
        const int64_t *in = prog + 3;
        uint64_t *od = state + prog[2] * row;
        uint64_t *op1 = od + row;
        memcpy(od, state + in[0] * row, (size_t)row * sizeof(uint64_t));
        memcpy(op1, state + in[1] * row, (size_t)row * sizeof(uint64_t));
        for (int64_t i = 1; i < n_in; i++) {
            const uint64_t *ad = state + in[2 * i] * row;
            const uint64_t *ap = state + in[2 * i + 1] * row;
            int64_t t;
            switch (op) {
            case OP_AND:
            case OP_NAND:
                for (t = 0; t < row; t++) {
                    od[t] &= ad[t];
                    op1[t] &= ap[t];
                }
                break;
            case OP_OR:
            case OP_NOR:
                for (t = 0; t < row; t++) {
                    od[t] |= ad[t];
                    op1[t] |= ap[t];
                }
                break;
            default: /* XOR, XNOR: any x operand forces x */
                for (t = 0; t < row; t++) {
                    uint64_t anyx = (op1[t] & ~od[t]) | (ap[t] & ~ad[t]);
                    uint64_t v = od[t] ^ ad[t];
                    od[t] = v & ~anyx;
                    op1[t] = v | anyx;
                }
                break;
            }
        }
        if (op == OP_NAND || op == OP_NOR) {
            for (int64_t t = 0; t < row; t++) {
                od[t] = ~od[t];
                op1[t] = ~op1[t];
            }
        } else if (op == OP_XNOR) { /* NOT: (d1, p1) -> (~p1, ~d1) */
            for (int64_t t = 0; t < row; t++) {
                uint64_t d = od[t];
                od[t] = ~op1[t];
                op1[t] = ~d;
            }
        }
        prog += 3 + 2 * n_in;
    }
}

/* Pack the int8 (n_pis, 3, k) batch into the state and propagate. */
void repro_propagate(const int8_t *codes, int64_t n_pis, int64_t k,
                     const int64_t *pi_rows, uint64_t *state, int64_t w,
                     const int64_t *prog, int64_t n_gates)
{
    pack(codes, n_pis, k, pi_rows, state, w);
    evaluate(state, w, prog, n_gates);
}

/* Propagate, then reduce the m requirement components (node, position,
 * value) into per-lane verdicts: a lane contradicts a required 1 iff its
 * value is a definite 0 (~p1) and a required 0 iff a definite 1 (d1); it
 * covers iff every definite value matches.  verdicts holds k consistent
 * flags followed by k covered flags.  Returns the rejected (inconsistent)
 * lane count. */
int64_t repro_screen(const int8_t *codes, int64_t n_pis, int64_t k,
                     const int64_t *pi_rows, uint64_t *state, int64_t w,
                     const int64_t *prog, int64_t n_gates,
                     const int64_t *nodes, const int64_t *positions,
                     const int8_t *values, int64_t m, uint8_t *verdicts)
{
    const int64_t row = 3 * w;
    uint8_t *consistent = verdicts;
    uint8_t *covered = verdicts + k;
    int64_t rejected = 0;
    pack(codes, n_pis, k, pi_rows, state, w);
    evaluate(state, w, prog, n_gates);
    for (int64_t word = 0; word < w; word++) {
        uint64_t contradiction = 0;
        uint64_t satisfied = ~(uint64_t)0;
        for (int64_t c = 0; c < m; c++) {
            const uint64_t *d1 = state + 2 * nodes[c] * row + positions[c] * w + word;
            uint64_t d = d1[0];
            uint64_t np = ~d1[row];
            if (values[c] == CODE_ONE) {
                contradiction |= np;
                satisfied &= d;
            } else {
                contradiction |= d;
                satisfied &= np;
            }
        }
        int64_t end = k - 64 * word < 64 ? k - 64 * word : 64;
        for (int64_t j = 0; j < end; j++) {
            uint8_t ok = !((contradiction >> j) & 1);
            consistent[64 * word + j] = ok;
            covered[64 * word + j] = (satisfied >> j) & 1;
            rejected += !ok;
        }
    }
    return rejected;
}
