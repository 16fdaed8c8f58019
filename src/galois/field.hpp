// GF(q) arithmetic for prime and prime-power q. Elements are encoded as
// integers in [0, q): for q = p^m, the base-p digits of the code are the
// coefficients of the polynomial representative, so 0 and 1 are always the
// additive and multiplicative identities. Multiplication and inversion go
// through precomputed log/antilog tables over a generator of GF(q)*;
// addition is a table for prime powers and modular addition for primes.
//
// The PolarFly construction (core/polarfly.hpp) does all of its projective
// geometry through this class, so correctness here is load-bearing — see
// tests/test_field.cpp for the axiom suite.
#pragma once

#include <cstdint>
#include <vector>

namespace pf::gf {

/// True if n = p^m for a prime p and m >= 1; reports p and m when asked.
bool is_prime_power(std::uint32_t n, std::uint32_t* prime = nullptr,
                    std::uint32_t* exponent = nullptr);

class Field {
 public:
  /// Throws std::invalid_argument unless q is a prime power in [2, 4096].
  explicit Field(std::uint32_t q);

  std::uint32_t order() const { return q_; }
  std::uint32_t characteristic() const { return p_; }
  std::uint32_t degree() const { return m_; }

  /// Operands must be field elements, in [0, q): a prime-field sum is
  /// then below 2p and one conditional subtraction reduces it.
  std::uint32_t add(std::uint32_t a, std::uint32_t b) const {
    if (m_ != 1) return add_[a * q_ + b];
    const std::uint32_t s = a + b;
    return s >= p_ ? s - p_ : s;
  }

  std::uint32_t neg(std::uint32_t a) const { return neg_[a]; }

  std::uint32_t sub(std::uint32_t a, std::uint32_t b) const {
    return add(a, neg_[b]);
  }

  std::uint32_t mul(std::uint32_t a, std::uint32_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];  // exp_ table is doubled, no modulo
  }

  /// Multiplicative inverse; a must be nonzero.
  std::uint32_t inv(std::uint32_t a) const {
    return exp_[q_ - 1 - log_[a]];
  }

  std::uint32_t div(std::uint32_t a, std::uint32_t b) const {
    return mul(a, inv(b));
  }

  /// A fixed generator of the multiplicative group GF(q)*.
  std::uint32_t generator() const { return generator_; }

  /// Discrete log base generator(); a must be nonzero.
  std::uint32_t log(std::uint32_t a) const { return log_[a]; }

  /// generator() raised to e (e in [0, q-1)).
  std::uint32_t exp(std::uint32_t e) const { return exp_[e % (q_ - 1)]; }

  /// True if a is a nonzero square in GF(q). For even q every element is a
  /// square; for odd q this is the quadratic-residue test.
  bool is_square(std::uint32_t a) const {
    if (a == 0) return false;
    return p_ == 2 || log_[a] % 2 == 0;
  }

 private:
  std::uint32_t q_ = 0;
  std::uint32_t p_ = 0;
  std::uint32_t m_ = 1;
  std::uint32_t generator_ = 0;
  std::vector<std::uint32_t> add_;   // q*q addition table (prime powers)
  std::vector<std::uint32_t> neg_;   // additive inverses
  std::vector<std::uint32_t> exp_;   // exp_[i] = g^i, doubled to 2(q-1)
  std::vector<std::uint32_t> log_;   // log_[g^i] = i, log_[0] unused
};

}  // namespace pf::gf
