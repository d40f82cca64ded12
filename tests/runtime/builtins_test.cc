#include "src/runtime/builtins.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/common/hash.h"

namespace nettrails {
namespace runtime {
namespace {

Result<Value> Call(const std::string& fn, std::vector<Value> args) {
  const BuiltinFn* f = FindBuiltin(fn);
  EXPECT_NE(f, nullptr) << fn;
  if (f == nullptr) return Status::NotFound(fn);
  return (*f)(args);
}

Value L(std::initializer_list<Value> xs) { return Value::List(ValueList(xs)); }

TEST(BuiltinsTest, Registry) {
  EXPECT_TRUE(IsBuiltin("f_append"));
  EXPECT_TRUE(IsBuiltin("f_isExtend"));
  EXPECT_FALSE(IsBuiltin("f_nonexistent"));
  EXPECT_FALSE(BuiltinNames().empty());
}

TEST(BuiltinsTest, ListConstruction) {
  EXPECT_EQ(*Call("f_list", {Value::Int(1), Value::Int(2)}),
            L({Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(*Call("f_empty", {}), L({}));
  EXPECT_FALSE(Call("f_empty", {Value::Int(1)}).ok());
}

TEST(BuiltinsTest, AppendPrependConcat) {
  Value ab = L({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(*Call("f_append", {ab, Value::Int(3)}),
            L({Value::Int(1), Value::Int(2), Value::Int(3)}));
  EXPECT_EQ(*Call("f_prepend", {Value::Int(0), ab}),
            L({Value::Int(0), Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(*Call("f_concat", {ab, ab}),
            L({Value::Int(1), Value::Int(2), Value::Int(1), Value::Int(2)}));
  EXPECT_EQ(*Call("f_concat", {Value::Str("ab"), Value::Str("cd")}),
            Value::Str("abcd"));
  EXPECT_FALSE(Call("f_concat", {ab, Value::Str("x")}).ok());
  EXPECT_FALSE(Call("f_append", {Value::Int(1), Value::Int(2)}).ok());
}

TEST(BuiltinsTest, MemberSizeFirstLastNth) {
  Value xs = L({Value::Int(5), Value::Int(7)});
  EXPECT_EQ(Call("f_member", {xs, Value::Int(5)})->as_int(), 1);
  EXPECT_EQ(Call("f_member", {xs, Value::Int(6)})->as_int(), 0);
  EXPECT_EQ(Call("f_size", {xs})->as_int(), 2);
  EXPECT_EQ(Call("f_size", {Value::Str("abc")})->as_int(), 3);
  EXPECT_EQ(*Call("f_first", {xs}), Value::Int(5));
  EXPECT_EQ(*Call("f_last", {xs}), Value::Int(7));
  EXPECT_EQ(*Call("f_nth", {xs, Value::Int(1)}), Value::Int(7));
  EXPECT_FALSE(Call("f_first", {L({})}).ok());
  EXPECT_FALSE(Call("f_last", {L({})}).ok());
  EXPECT_FALSE(Call("f_nth", {xs, Value::Int(9)}).ok());
}

TEST(BuiltinsTest, ReverseAndRemoveLast) {
  Value xs = L({Value::Int(1), Value::Int(2), Value::Int(3)});
  EXPECT_EQ(*Call("f_reverse", {xs}),
            L({Value::Int(3), Value::Int(2), Value::Int(1)}));
  EXPECT_EQ(*Call("f_removeLast", {xs}), L({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(Call("f_removeLast", {L({})}).ok());
}

TEST(BuiltinsTest, MinMaxAbs) {
  EXPECT_EQ(*Call("f_min", {Value::Int(3), Value::Int(5)}), Value::Int(3));
  EXPECT_EQ(*Call("f_max", {Value::Int(3), Value::Int(5)}), Value::Int(5));
  EXPECT_EQ(*Call("f_abs", {Value::Int(-4)}), Value::Int(4));
  EXPECT_DOUBLE_EQ(Call("f_abs", {Value::Double(-2.5)})->as_double(), 2.5);
  EXPECT_FALSE(Call("f_abs", {Value::Str("x")}).ok());
}

TEST(BuiltinsTest, AbsGuardsIntMin) {
  // |INT64_MIN| is not representable: a RuntimeError, not llabs() UB.
  const int64_t min = std::numeric_limits<int64_t>::min();
  const int64_t max = std::numeric_limits<int64_t>::max();
  Result<Value> overflow = Call("f_abs", {Value::Int(min)});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), Status::Code::kRuntimeError);
  EXPECT_EQ(*Call("f_abs", {Value::Int(min + 1)}), Value::Int(max));
  EXPECT_EQ(*Call("f_abs", {Value::Int(max)}), Value::Int(max));
}

TEST(BuiltinsTest, ArityMetadataMatchesRuntimeChecks) {
  // The planner rejects arity violations at compile time using
  // FindBuiltinInfo; the contract must agree with what the functions
  // themselves enforce.
  for (const std::string& name : BuiltinNames()) {
    const BuiltinInfo* info = FindBuiltinInfo(name);
    ASSERT_NE(info, nullptr) << name;
    EXPECT_EQ(&info->fn, FindBuiltin(name)) << name;
    EXPECT_GE(info->min_args, 0) << name;
    if (info->max_args >= 0) {
      EXPECT_LE(info->min_args, info->max_args) << name;
      // One past the maximum must be refused at call time too.
      std::vector<Value> args(static_cast<size_t>(info->max_args) + 1,
                              Value::Int(1));
      EXPECT_FALSE(info->fn(args).ok()) << name;
    }
    if (info->min_args > 0) {
      std::vector<Value> args(static_cast<size_t>(info->min_args) - 1,
                              Value::Int(1));
      EXPECT_FALSE(info->fn(args).ok()) << name;
    }
    // The registry range must not be wider than the function's own check:
    // every in-range count must get past the arity gate (it may still fail
    // on argument types — arity refusals are recognizable by message, the
    // "argument(s)" wording of ArityError).
    const int probe_max =
        info->max_args >= 0 ? info->max_args : info->min_args + 2;
    for (int n = info->min_args; n <= probe_max; ++n) {
      std::vector<Value> args(static_cast<size_t>(n), Value::Int(1));
      Result<Value> r = info->fn(args);
      if (!r.ok()) {
        EXPECT_EQ(r.status().message().find("argument(s)"), std::string::npos)
            << name << " refused in-range arity " << n << ": "
            << r.status().ToString();
      }
    }
  }
}

TEST(BuiltinsTest, ToStrAndSha1) {
  EXPECT_EQ(*Call("f_tostr", {Value::Int(42)}), Value::Str("42"));
  Value h1 = *Call("f_sha1", {Value::Str("x")});
  Value h2 = *Call("f_sha1", {Value::Str("x")});
  EXPECT_EQ(h1, h2);
  EXPECT_NE(*Call("f_sha1", {Value::Str("y")}), h1);
}

TEST(BuiltinsTest, IsExtendMatchesPaperSemantics) {
  // Route2 = [AS] ++ Route1.
  Value as = Value::Address(7);
  Value r1 = L({Value::Address(3), Value::Address(5)});
  Value r2 = L({Value::Address(7), Value::Address(3), Value::Address(5)});
  EXPECT_EQ(Call("f_isExtend", {r2, r1, as})->as_int(), 1);
  // Wrong prepended node.
  EXPECT_EQ(Call("f_isExtend", {r2, r1, Value::Address(8)})->as_int(), 0);
  // Wrong suffix.
  Value bad = L({Value::Address(7), Value::Address(5), Value::Address(3)});
  EXPECT_EQ(Call("f_isExtend", {bad, r1, as})->as_int(), 0);
  // Wrong length.
  EXPECT_EQ(Call("f_isExtend", {r1, r1, as})->as_int(), 0);
  EXPECT_FALSE(Call("f_isExtend", {r2, r1}).ok());
}

TEST(BuiltinsTest, MkVidMatchesTupleHash) {
  Tuple t("link", {Value::Address(1), Value::Address(2), Value::Int(10)});
  Value vid = *Call("f_mkvid", {Value::Str("link"), Value::Address(1),
                                Value::Address(2), Value::Int(10)});
  EXPECT_EQ(ValueToVid(vid), t.Hash());
  EXPECT_EQ(TupleVid("link", t.fields()), t.Hash());
}

TEST(BuiltinsTest, MkVidMatchesTupleHashForListFields) {
  // A path-vector tuple: the list field's digest comes from the cache in
  // its shared rep, and all three VID computations must agree bit-for-bit.
  Value path = L({Value::Address(1), Value::Address(2), Value::Address(3)});
  (void)path.Hash();  // warm the cache before any of the three digests
  Tuple t("path", {Value::Address(1), Value::Address(3), path, Value::Int(4)});
  Value vid = *Call("f_mkvid", {Value::Str("path"), Value::Address(1),
                                Value::Address(3), path, Value::Int(4)});
  EXPECT_EQ(ValueToVid(vid), t.Hash());
  EXPECT_EQ(TupleVid("path", t.fields()), t.Hash());
}

TEST(BuiltinsTest, MkRidDeterministic) {
  Value vids = L({VidToValue(1), VidToValue(2)});
  Value r1 =
      *Call("f_mkrid", {Value::Str("mc1"), Value::Address(3), vids});
  Value r2 =
      *Call("f_mkrid", {Value::Str("mc1"), Value::Address(3), vids});
  EXPECT_EQ(r1, r2);
  Value r3 =
      *Call("f_mkrid", {Value::Str("mc2"), Value::Address(3), vids});
  EXPECT_NE(r1, r3);
  EXPECT_EQ(ValueToVid(r1), RuleExecRid("mc1", 3, vids.as_list()));
  // The RID layout, spelled out: rule name, executing node, VID count, then
  // each VID.
  Hasher h;
  h.AddString("mc1");
  h.AddU64(3);
  h.AddU64(2);
  h.AddU64(1);
  h.AddU64(2);
  EXPECT_EQ(ValueToVid(r1), h.Digest());
  EXPECT_FALSE(Call("f_mkrid", {Value::Str("x"), Value::Int(1), vids}).ok());
}

TEST(BuiltinsTest, VidValueRoundTrip) {
  Vid vid = 0xdeadbeefcafef00dULL;
  EXPECT_EQ(ValueToVid(VidToValue(vid)), vid);
}

}  // namespace
}  // namespace runtime
}  // namespace nettrails
