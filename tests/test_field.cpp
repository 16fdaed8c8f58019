// GF(q) field-axiom suite for prime and prime-power orders.
#include <gtest/gtest.h>

#include <vector>

#include "galois/field.hpp"

namespace {

using pf::gf::Field;

const std::vector<std::uint32_t> kPrimes = {2, 3, 5, 7, 13, 31, 127};
const std::vector<std::uint32_t> kPrimePowers = {4, 8, 9, 16, 25, 27, 49,
                                                 121, 128};

class FieldAxioms : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(FieldAxioms, AdditiveGroup) {
  const Field f(GetParam());
  const std::uint32_t q = f.order();
  for (std::uint32_t a = 0; a < q; ++a) {
    EXPECT_EQ(f.add(a, 0), a);
    EXPECT_EQ(f.add(a, f.neg(a)), 0u);
    for (std::uint32_t b = 0; b < q; ++b) {
      EXPECT_EQ(f.add(a, b), f.add(b, a));
      EXPECT_LT(f.add(a, b), q);
    }
  }
}

TEST_P(FieldAxioms, MultiplicativeGroup) {
  const Field f(GetParam());
  const std::uint32_t q = f.order();
  for (std::uint32_t a = 0; a < q; ++a) {
    EXPECT_EQ(f.mul(a, 1), a);
    EXPECT_EQ(f.mul(a, 0), 0u);
    if (a != 0) {
      EXPECT_EQ(f.mul(a, f.inv(a)), 1u) << "a=" << a;
    }
    for (std::uint32_t b = 0; b < q; ++b) {
      EXPECT_EQ(f.mul(a, b), f.mul(b, a));
      EXPECT_LT(f.mul(a, b), q);
    }
  }
}

TEST_P(FieldAxioms, AssociativityAndDistributivity) {
  const Field f(GetParam());
  const std::uint32_t q = f.order();
  // Exhaustive for small fields, strided sampling for larger ones.
  const std::uint32_t step = q > 32 ? q / 17 + 1 : 1;
  for (std::uint32_t a = 0; a < q; a += step) {
    for (std::uint32_t b = 0; b < q; b += step) {
      for (std::uint32_t c = 0; c < q; c += step) {
        EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
        EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
      }
    }
  }
}

TEST_P(FieldAxioms, GeneratorSpansUnits) {
  const Field f(GetParam());
  const std::uint32_t q = f.order();
  if (q == 2) {
    EXPECT_EQ(f.generator(), 1u);
    return;
  }
  std::vector<bool> seen(q, false);
  std::uint32_t x = 1;
  for (std::uint32_t e = 0; e + 1 < q; ++e) {
    EXPECT_FALSE(seen[x]) << "generator order too small at e=" << e;
    seen[x] = true;
    EXPECT_EQ(f.exp(e), x);
    EXPECT_EQ(f.log(x), e);
    x = f.mul(x, f.generator());
  }
  EXPECT_EQ(x, 1u) << "generator order isn't q-1";
}

TEST_P(FieldAxioms, Frobenius) {
  const Field f(GetParam());
  const std::uint32_t q = f.order();
  const std::uint32_t p = f.characteristic();
  // a^e by repeated multiplication: the field's own mul, nothing else.
  const auto pow = [&f](std::uint32_t a, std::uint32_t e) {
    std::uint32_t x = 1;
    for (std::uint32_t i = 0; i < e; ++i) x = f.mul(x, a);
    return x;
  };
  for (std::uint32_t a = 0; a < q; ++a) {
    for (std::uint32_t b = 0; b < q; ++b) {
      // (a + b)^p = a^p + b^p in characteristic p.
      EXPECT_EQ(pow(f.add(a, b), p), f.add(pow(a, p), pow(b, p)));
    }
    EXPECT_EQ(pow(a, q), a);  // x^q = x
  }
}

INSTANTIATE_TEST_SUITE_P(Primes, FieldAxioms, ::testing::ValuesIn(kPrimes));
INSTANTIATE_TEST_SUITE_P(PrimePowers, FieldAxioms,
                         ::testing::ValuesIn(kPrimePowers));

TEST(Field, PrimeAddIsTheModularSum) {
  std::vector<std::uint32_t> primes = kPrimes;
  primes.push_back(47);  // the paper's largest PolarFly, ER_47
  for (const std::uint32_t p : primes) {
    const Field f(p);
    for (std::uint32_t a = 0; a < p; ++a) {
      for (std::uint32_t b = 0; b < p; ++b) {
        ASSERT_EQ(f.add(a, b), (a + b) % p) << "p=" << p << " a=" << a
                                            << " b=" << b;
      }
    }
  }
}

TEST(Field, RejectsNonPrimePowers) {
  EXPECT_THROW(Field(1), std::invalid_argument);
  EXPECT_THROW(Field(6), std::invalid_argument);
  EXPECT_THROW(Field(12), std::invalid_argument);
  EXPECT_THROW(Field(100), std::invalid_argument);
}

TEST(Field, PrimePowerDetection) {
  std::uint32_t p = 0;
  std::uint32_t m = 0;
  EXPECT_TRUE(pf::gf::is_prime_power(27, &p, &m));
  EXPECT_EQ(p, 3u);
  EXPECT_EQ(m, 3u);
  EXPECT_TRUE(pf::gf::is_prime_power(121, &p, &m));
  EXPECT_EQ(p, 11u);
  EXPECT_EQ(m, 2u);
  EXPECT_FALSE(pf::gf::is_prime_power(0));
  EXPECT_FALSE(pf::gf::is_prime_power(1));
  EXPECT_FALSE(pf::gf::is_prime_power(36));
}

TEST(Field, QuadraticResidues) {
  const Field f(13);
  int squares = 0;
  for (std::uint32_t a = 1; a < 13; ++a) {
    if (f.is_square(a)) ++squares;
    EXPECT_TRUE(f.is_square(f.mul(a, a)));
  }
  EXPECT_EQ(squares, 6);  // (q-1)/2 residues
}

}  // namespace
