#include "netlist/builder.hpp"

#include <bit>
#include <string>

namespace p5::netlist {

Bus Builder::input_bus(const std::string& prefix, std::size_t bits) {
  Bus bus;
  bus.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) bus.push_back(nl_.input(prefix + std::to_string(i)));
  return bus;
}

Bus Builder::constant_bus(u64 value, std::size_t bits) {
  Bus bus;
  bus.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) bus.push_back(nl_.constant((value >> i) & 1u));
  return bus;
}

Bus Builder::dff_bus(std::size_t bits) {
  Bus bus;
  bus.reserve(bits);
  for (std::size_t i = 0; i < bits; ++i) bus.push_back(nl_.dff());
  return bus;
}

void Builder::wire_dff_bus(const Bus& dffs, const Bus& d) {
  P5_EXPECTS(dffs.size() == d.size());
  for (std::size_t i = 0; i < dffs.size(); ++i) nl_.set_dff_input(dffs[i], d[i]);
}

void Builder::output_bus(const Bus& bus, const std::string& prefix) {
  for (std::size_t i = 0; i < bus.size(); ++i) nl_.output(bus[i], prefix + std::to_string(i));
}

namespace {
NodeId reduce_tree(Netlist& nl, Op op, Bus bits) {
  P5_EXPECTS(!bits.empty());
  while (bits.size() > 1) {
    Bus next;
    next.reserve((bits.size() + 3) / 4);
    // 4-ary reduction matches 4-input LUT granularity.
    for (std::size_t i = 0; i < bits.size(); i += 4) {
      std::vector<NodeId> group;
      for (std::size_t j = i; j < std::min(i + 4, bits.size()); ++j) group.push_back(bits[j]);
      next.push_back(group.size() == 1 ? group[0] : nl.gate(op, std::move(group)));
    }
    bits = std::move(next);
  }
  return bits[0];
}
}  // namespace

NodeId Builder::reduce_and(const Bus& bits) { return reduce_tree(nl_, Op::kAnd, bits); }
NodeId Builder::reduce_or(const Bus& bits) { return reduce_tree(nl_, Op::kOr, bits); }
NodeId Builder::reduce_xor(const Bus& bits) { return reduce_tree(nl_, Op::kXor, bits); }

Bus Builder::mux_bus(NodeId sel, const Bus& when0, const Bus& when1) {
  P5_EXPECTS(when0.size() == when1.size());
  Bus out;
  out.reserve(when0.size());
  for (std::size_t i = 0; i < when0.size(); ++i)
    out.push_back(nl_.mux(sel, when0[i], when1[i]));
  return out;
}

Bus Builder::onehot_mux(const std::vector<NodeId>& selects, const std::vector<Bus>& choices) {
  P5_EXPECTS(!choices.empty() && selects.size() == choices.size());
  const std::size_t width = choices[0].size();
  Bus out;
  out.reserve(width);
  for (std::size_t bit = 0; bit < width; ++bit) {
    Bus terms;
    terms.reserve(choices.size());
    for (std::size_t c = 0; c < choices.size(); ++c) {
      P5_EXPECTS(choices[c].size() == width);
      terms.push_back(nl_.and_(selects[c], choices[c][bit]));
    }
    out.push_back(reduce_or(terms));
  }
  return out;
}

NodeId Builder::eq_const(const Bus& bus, u64 value) {
  Bus terms;
  terms.reserve(bus.size());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const bool want = (value >> i) & 1u;
    terms.push_back(want ? bus[i] : nl_.not_(bus[i]));
  }
  return reduce_and(terms);
}

NodeId Builder::eq_bus(const Bus& a, const Bus& b) {
  P5_EXPECTS(a.size() == b.size());
  Bus terms;
  terms.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) terms.push_back(nl_.not_(nl_.xor_(a[i], b[i])));
  return reduce_and(terms);
}

NodeId Builder::table_fn(const Bus& in, const std::function<bool(u64)>& fn) {
  P5_EXPECTS(in.size() <= 12);
  const u64 combos = u64{1} << in.size();
  // Collect minterms; complement if that is smaller (LUTs invert for free).
  std::vector<u64> ones;
  for (u64 v = 0; v < combos; ++v)
    if (fn(v)) ones.push_back(v);
  if (ones.empty()) return nl_.constant(false);
  if (ones.size() == combos) return nl_.constant(true);

  const bool invert = ones.size() > combos / 2;
  std::vector<u64> terms;
  for (u64 v = 0; v < combos; ++v)
    if (fn(v) != invert) terms.push_back(v);

  Bus products;
  products.reserve(terms.size());
  for (const u64 t : terms) {
    Bus lits;
    lits.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
      lits.push_back(((t >> i) & 1u) ? in[i] : nl_.not_(in[i]));
    products.push_back(reduce_and(lits));
  }
  const NodeId sop = reduce_or(products);
  return invert ? nl_.not_(sop) : sop;
}

Bus Builder::table_bus(const Bus& in, const std::function<u64(u64)>& fn, std::size_t out_bits) {
  Bus out;
  out.reserve(out_bits);
  for (std::size_t b = 0; b < out_bits; ++b)
    out.push_back(table_fn(in, [&fn, b](u64 v) { return (fn(v) >> b) & 1u; }));
  return out;
}

Bus Builder::add(const Bus& a, const Bus& b, NodeId carry_in) {
  const std::size_t width = std::max(a.size(), b.size());

  // Small adds collapse into two-level logic (single LUTs per output bit).
  if (a.size() + b.size() + (carry_in != kInvalidNode ? 1 : 0) <= 6) {
    Bus in = a;
    in.insert(in.end(), b.begin(), b.end());
    if (carry_in != kInvalidNode) in.push_back(carry_in);
    const std::size_t an = a.size(), bn = b.size();
    const bool has_c = carry_in != kInvalidNode;
    return table_bus(
        in,
        [an, bn, has_c](u64 v) {
          const u64 av = v & ((u64{1} << an) - 1);
          const u64 bv = (v >> an) & ((u64{1} << bn) - 1);
          const u64 cv = has_c ? (v >> (an + bn)) & 1u : 0;
          return av + bv + cv;
        },
        width + 1);
  }

  // Carry-lookahead: carry_i = OR_j<i ( g_j & AND_{j<m<i} p_m ), flattened —
  // models the fast-carry structure FPGAs provide (shallow, gate-hungry).
  Bus g, p;
  for (std::size_t i = 0; i < width; ++i) {
    const NodeId ai = i < a.size() ? a[i] : nl_.constant(false);
    const NodeId bi = i < b.size() ? b[i] : nl_.constant(false);
    g.push_back(nl_.and_(ai, bi));
    p.push_back(nl_.xor_(ai, bi));
  }
  const NodeId c0 = carry_in == kInvalidNode ? nl_.constant(false) : carry_in;

  Bus sum;
  sum.reserve(width + 1);
  NodeId carry = c0;
  for (std::size_t i = 0; i <= width; ++i) {
    if (i > 0) {
      // carry into bit i, flattened two-level form.
      Bus terms;
      {
        Bus chain;  // c0 propagated through p[0..i-1]
        chain.push_back(c0);
        for (std::size_t m = 0; m < i; ++m) chain.push_back(p[m]);
        terms.push_back(reduce_and(chain));
      }
      for (std::size_t j = 0; j < i; ++j) {
        Bus chain;
        chain.push_back(g[j]);
        for (std::size_t m = j + 1; m < i; ++m) chain.push_back(p[m]);
        terms.push_back(reduce_and(chain));
      }
      carry = reduce_or(terms);
    }
    if (i < width)
      sum.push_back(nl_.xor_(p[i], carry));
    else
      sum.push_back(carry);
  }
  return sum;
}

Bus Builder::add_bit(const Bus& a, NodeId bit) {
  Bus b{bit};
  return add(a, b);
}

NodeId Builder::ge_const(const Bus& bus, u64 value) {
  if (value == 0) return nl_.constant(true);
  if (bus.size() <= 8) return table_fn(bus, [value](u64 v) { return v >= value; });
  // Wide compare: a >= v  <=>  a + (~v) + 1 carries out.
  const u64 mask = bus.size() >= 64 ? ~u64{0} : ((u64{1} << bus.size()) - 1);
  const Bus not_v = constant_bus((~value) & mask, bus.size());
  const Bus sum = add(bus, not_v, nl_.constant(true));
  return sum.back();  // carry-out
}

Bus Builder::popcount(const Bus& bits) {
  P5_EXPECTS(!bits.empty());
  std::size_t out_bits = 1;
  while ((std::size_t{1} << out_bits) <= bits.size()) ++out_bits;
  if (bits.size() <= 8)
    return table_bus(
        bits, [](u64 v) { return static_cast<u64>(std::popcount(v)); }, out_bits);
  // Tree of small adders for wide inputs.
  std::vector<Bus> partials;
  partials.reserve(bits.size());
  for (const NodeId b : bits) partials.push_back(Bus{b});
  while (partials.size() > 1) {
    std::vector<Bus> next;
    for (std::size_t i = 0; i + 1 < partials.size(); i += 2)
      next.push_back(add(partials[i], partials[i + 1]));
    if (partials.size() % 2) next.push_back(partials.back());
    partials = std::move(next);
  }
  return partials[0];
}

std::vector<Bus> Builder::rotate_lanes(const std::vector<Bus>& lanes, const Bus& amount) {
  // Log-shifter: stage k rotates by 2^k lanes when amount[k] is set.
  std::vector<Bus> current = lanes;
  const std::size_t n = lanes.size();
  for (std::size_t stage = 0; stage < amount.size(); ++stage) {
    const std::size_t shift = std::size_t{1} << stage;
    std::vector<Bus> next;
    next.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Bus& straight = current[i];
      const Bus& rotated = current[(i + shift) % n];
      next.push_back(mux_bus(amount[stage], straight, rotated));
    }
    current = std::move(next);
  }
  return current;
}

Builder::Priority Builder::priority_encode(const Bus& bits) {
  Priority p;
  p.valid = reduce_or(bits);
  std::size_t index_bits = 0;
  while ((std::size_t{1} << index_bits) < bits.size()) ++index_bits;
  if (index_bits == 0) index_bits = 1;

  // "No earlier bit set" chain.
  std::vector<NodeId> first;  // first[i] = bits[i] & !bits[0..i-1]
  NodeId none_before = nl_.constant(true);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    first.push_back(nl_.and_(bits[i], none_before));
    none_before = nl_.and_(none_before, nl_.not_(bits[i]));
  }

  p.index.reserve(index_bits);
  for (std::size_t bit = 0; bit < index_bits; ++bit) {
    Bus terms;
    for (std::size_t i = 0; i < bits.size(); ++i)
      if ((i >> bit) & 1u) terms.push_back(first[i]);
    p.index.push_back(terms.empty() ? nl_.constant(false) : reduce_or(terms));
  }
  return p;
}

}  // namespace p5::netlist
