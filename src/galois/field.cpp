#include "galois/field.hpp"

#include <stdexcept>
#include <string>

namespace pf::gf {
namespace {

// Polynomials over GF(p) are coefficient vectors, least significant first.
using Poly = std::vector<std::uint32_t>;

Poly decode(std::uint32_t code, std::uint32_t p) {
  Poly poly;
  while (code > 0) {
    poly.push_back(code % p);
    code /= p;
  }
  return poly;
}

std::uint32_t encode(const Poly& poly, std::uint32_t p) {
  std::uint32_t code = 0;
  for (std::size_t i = poly.size(); i > 0; --i) {
    code = code * p + poly[i - 1];
  }
  return code;
}

void trim(Poly& poly) {
  while (!poly.empty() && poly.back() == 0) poly.pop_back();
}

Poly poly_mul(const Poly& a, const Poly& b, std::uint32_t p) {
  if (a.empty() || b.empty()) return {};
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = (out[i + j] + a[i] * b[j]) % p;
    }
  }
  trim(out);
  return out;
}

// a mod b, b monic-normalizable (b nonzero).
Poly poly_mod(Poly a, const Poly& b, std::uint32_t p) {
  trim(a);
  // Multiplicative inverse of b's leading coefficient mod p.
  const std::uint32_t lead = b.back();
  std::uint32_t lead_inv = 1;
  for (std::uint32_t x = 1; x < p; ++x) {
    if (lead * x % p == 1) {
      lead_inv = x;
      break;
    }
  }
  while (a.size() >= b.size()) {
    const std::uint32_t factor = a.back() * lead_inv % p;
    const std::size_t shift = a.size() - b.size();
    for (std::size_t i = 0; i < b.size(); ++i) {
      a[shift + i] = (a[shift + i] + p * p - factor * b[i] % p) % p;
    }
    trim(a);
    if (a.empty()) break;
  }
  return a;
}

// Trial division by every monic polynomial of degree 1..deg/2.
bool is_irreducible(const Poly& candidate, std::uint32_t p) {
  const std::size_t deg = candidate.size() - 1;
  for (std::size_t d = 1; d <= deg / 2; ++d) {
    // Enumerate monic polynomials of degree d via their p^d low codes.
    std::uint64_t count = 1;
    for (std::size_t i = 0; i < d; ++i) count *= p;
    for (std::uint64_t code = 0; code < count; ++code) {
      Poly divisor = decode(static_cast<std::uint32_t>(code), p);
      divisor.resize(d + 1, 0);
      divisor[d] = 1;
      if (poly_mod(candidate, divisor, p).empty()) return false;
    }
  }
  return true;
}

}  // namespace

bool is_prime_power(std::uint32_t n, std::uint32_t* prime,
                    std::uint32_t* exponent) {
  if (n < 2) return false;
  std::uint32_t p = n;
  for (std::uint32_t d = 2; d * d <= n; ++d) {
    if (n % d == 0) {
      p = d;
      break;
    }
  }
  std::uint32_t m = 0;
  std::uint32_t rest = n;
  while (rest % p == 0) {
    rest /= p;
    ++m;
  }
  if (rest != 1) return false;
  if (prime != nullptr) *prime = p;
  if (exponent != nullptr) *exponent = m;
  return true;
}

Field::Field(std::uint32_t q) : q_(q) {
  if (q < 2 || q > 4096 || !is_prime_power(q, &p_, &m_)) {
    throw std::invalid_argument("GF(" + std::to_string(q) +
                                "): order must be a prime power in [2, 4096]");
  }

  // Negation and (for prime powers) the full addition table. Addition of
  // codes is digit-wise mod p.
  neg_.resize(q_);
  if (m_ == 1) {
    for (std::uint32_t a = 0; a < q_; ++a) neg_[a] = (q_ - a) % q_;
  } else {
    add_.resize(static_cast<std::size_t>(q_) * q_);
    for (std::uint32_t a = 0; a < q_; ++a) {
      for (std::uint32_t b = 0; b < q_; ++b) {
        std::uint32_t sum = 0;
        std::uint32_t pw = 1;
        std::uint32_t x = a;
        std::uint32_t y = b;
        while (x > 0 || y > 0) {
          sum += (x % p_ + y % p_) % p_ * pw;
          x /= p_;
          y /= p_;
          pw *= p_;
        }
        add_[static_cast<std::size_t>(a) * q_ + b] = sum;
      }
    }
    for (std::uint32_t a = 0; a < q_; ++a) {
      std::uint32_t negated = 0;
      std::uint32_t pw = 1;
      std::uint32_t x = a;
      while (x > 0) {
        negated += (p_ - x % p_) % p_ * pw;
        x /= p_;
        pw *= p_;
      }
      neg_[a] = negated;
    }
  }

  // Reduction modulus for prime-power fields: the lexicographically first
  // monic irreducible polynomial of degree m over GF(p).
  Poly modulus;
  if (m_ > 1) {
    for (std::uint32_t low = 0;; ++low) {
      Poly candidate = decode(low, p_);
      if (candidate.size() > m_) {
        throw std::logic_error("no irreducible polynomial found");
      }
      candidate.resize(m_ + 1, 0);
      candidate[m_] = 1;
      if (is_irreducible(candidate, p_)) {
        modulus = candidate;
        break;
      }
    }
  }

  auto raw_mul = [this, &modulus](std::uint32_t a, std::uint32_t b) {
    if (m_ == 1) {
      return static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(a) * b % p_);
    }
    return encode(poly_mod(poly_mul(decode(a, p_), decode(b, p_), p_),
                           modulus, p_),
                  p_);
  };

  // Find a generator of GF(q)* and fill the log/antilog tables.
  log_.assign(q_, 0);
  exp_.assign(2 * (q_ - 1), 0);
  for (std::uint32_t g = 2; g < q_; ++g) {
    std::uint32_t x = 1;
    std::uint32_t order = 0;
    do {
      x = raw_mul(x, g);
      ++order;
    } while (x != 1);
    if (order == q_ - 1) {
      generator_ = g;
      break;
    }
  }
  if (generator_ == 0 && q_ == 2) generator_ = 1;
  if (generator_ == 0) throw std::logic_error("no field generator found");
  std::uint32_t x = 1;
  for (std::uint32_t e = 0; e < q_ - 1; ++e) {
    exp_[e] = x;
    exp_[e + q_ - 1] = x;
    log_[x] = e;
    x = raw_mul(x, generator_);
  }
}

}  // namespace pf::gf
