#include "src/runtime/expr_eval.h"

#include <cstdint>

namespace nettrails {
namespace runtime {

namespace {

using ndlog::BinOp;
using ndlog::Expr;
using ndlog::UnOp;

std::string SpanSuffix(ndlog::Span span) {
  return span.valid() ? " at " + span.ToString() : std::string();
}

Status ArityPlanError(const std::string& fn, const BuiltinInfo& info,
                      size_t got, ndlog::Span span) {
  std::string want;
  if (info.max_args < 0) {
    want = "at least " + std::to_string(info.min_args);
  } else if (info.min_args == info.max_args) {
    want = std::to_string(info.min_args);
  } else {
    want = std::to_string(info.min_args) + ".." +
           std::to_string(info.max_args);
  }
  return Status::PlanError(fn + " expects " + want + " argument(s), got " +
                           std::to_string(got) + SpanSuffix(span));
}

/// Lowers `expr` into `out`'s node pool, returning the new node's id.
Result<uint32_t> Lower(const Expr& expr, SlotMap* slots, CompiledExpr* out) {
  struct Visitor {
    SlotMap* slots;
    CompiledExpr* out;
    ndlog::Span span;  // source position of the expression being visited

    Result<uint32_t> Emit(CompiledExpr::Node node) {
      out->nodes.push_back(std::move(node));
      return static_cast<uint32_t>(out->nodes.size()) - 1;
    }

    Result<uint32_t> operator()(const Expr::Const& c) {
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kConst;
      node.constant = c.value;
      return Emit(std::move(node));
    }

    Result<uint32_t> operator()(const Expr::Var& v) {
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kSlot;
      node.slot = slots->Intern(v.name);
      node.name = v.name;
      return Emit(std::move(node));
    }

    Result<uint32_t> operator()(const Expr::Call& call) {
      const BuiltinInfo* info = FindBuiltinInfo(call.fn);
      if (info == nullptr) {
        return Status::PlanError("unknown builtin function " + call.fn +
                                 SpanSuffix(span));
      }
      if (static_cast<int>(call.args.size()) < info->min_args ||
          (info->max_args >= 0 &&
           static_cast<int>(call.args.size()) > info->max_args)) {
        return ArityPlanError(call.fn, *info, call.args.size(), span);
      }
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kCall;
      node.fn = &info->fn;
      node.name = call.fn;
      node.children.reserve(call.args.size());
      for (const ndlog::ExprPtr& a : call.args) {
        NT_ASSIGN_OR_RETURN(uint32_t child, Lower(*a, slots, out));
        node.children.push_back(child);
      }
      return Emit(std::move(node));
    }

    Result<uint32_t> operator()(const Expr::Binary& bin) {
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kBinary;
      node.bin_op = bin.op;
      NT_ASSIGN_OR_RETURN(uint32_t lhs, Lower(*bin.lhs, slots, out));
      NT_ASSIGN_OR_RETURN(uint32_t rhs, Lower(*bin.rhs, slots, out));
      node.children = {lhs, rhs};
      return Emit(std::move(node));
    }

    Result<uint32_t> operator()(const Expr::Unary& un) {
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kUnary;
      node.un_op = un.op;
      NT_ASSIGN_OR_RETURN(uint32_t operand, Lower(*un.operand, slots, out));
      node.children = {operand};
      return Emit(std::move(node));
    }

    Result<uint32_t> operator()(const Expr::ListLit& lst) {
      CompiledExpr::Node node;
      node.op = CompiledExpr::Op::kList;
      node.children.reserve(lst.elements.size());
      for (const ndlog::ExprPtr& e : lst.elements) {
        NT_ASSIGN_OR_RETURN(uint32_t child, Lower(*e, slots, out));
        node.children.push_back(child);
      }
      return Emit(std::move(node));
    }
  };
  return std::visit(Visitor{slots, out, expr.span()}, expr.rep());
}

/// Integer arithmetic is overflow-checked: on int64 wrap the result is a
/// RuntimeError (not UB), so a crafted NDlog program can never trip UBSan
/// or produce silently wrapped values. INT64_MIN % -1 is 0 (the
/// mathematically defined remainder; the hardware instruction faults).
Result<Value> EvalArith(BinOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::TypeError("arithmetic on non-numeric values (" +
                             a.ToString() + ", " + b.ToString() + ")");
  }
  if (a.is_int() && b.is_int()) {
    int64_t x = a.as_int(), y = b.as_int(), r = 0;
    switch (op) {
      case BinOp::kAdd:
        if (__builtin_add_overflow(x, y, &r)) {
          return Status::RuntimeError("integer overflow in addition");
        }
        return Value::Int(r);
      case BinOp::kSub:
        if (__builtin_sub_overflow(x, y, &r)) {
          return Status::RuntimeError("integer overflow in subtraction");
        }
        return Value::Int(r);
      case BinOp::kMul:
        if (__builtin_mul_overflow(x, y, &r)) {
          return Status::RuntimeError("integer overflow in multiplication");
        }
        return Value::Int(r);
      case BinOp::kDiv:
        if (y == 0) return Status::RuntimeError("integer division by zero");
        if (y == -1 && x == INT64_MIN) {
          return Status::RuntimeError("integer overflow in division");
        }
        return Value::Int(x / y);
      case BinOp::kMod:
        if (y == 0) return Status::RuntimeError("modulo by zero");
        // x % -1 == 0 for every x; computed directly so INT64_MIN never
        // reaches the (faulting) hardware remainder.
        if (y == -1) return Value::Int(0);
        return Value::Int(x % y);
      default:
        return Status::RuntimeError("not an arithmetic op");
    }
  }
  double x = a.NumericAsDouble(), y = b.NumericAsDouble();
  switch (op) {
    case BinOp::kAdd:
      return Value::Double(x + y);
    case BinOp::kSub:
      return Value::Double(x - y);
    case BinOp::kMul:
      return Value::Double(x * y);
    case BinOp::kDiv:
      if (y == 0) return Status::RuntimeError("division by zero");
      return Value::Double(x / y);
    case BinOp::kMod:
      return Status::TypeError("modulo on doubles");
    default:
      return Status::RuntimeError("not an arithmetic op");
  }
}

Result<Value> EvalNode(const CompiledExpr& expr, uint32_t id,
                       const Frame& frame) {
  const CompiledExpr::Node& node = expr.nodes[id];
  switch (node.op) {
    case CompiledExpr::Op::kConst:
      return node.constant;
    case CompiledExpr::Op::kSlot:
      if (!frame.IsBound(node.slot)) {
        return Status::RuntimeError("unbound variable " + node.name);
      }
      return frame.Get(node.slot);
    case CompiledExpr::Op::kCall: {
      // Argument vectors are pooled across evaluations: builtin calls run
      // on every selection/head evaluation, and a fresh vector here was the
      // single largest allocation source in converged churn. Calls nest
      // (arguments may themselves be calls), so the pool holds one buffer
      // per nesting level seen. One pool per thread: parallel simulator
      // workers each evaluate their own nodes' rules, and a shared pool
      // would both race and ping-pong cache lines.
      static thread_local std::vector<std::vector<Value>> pool;
      std::vector<Value> args;
      if (!pool.empty()) {
        args = std::move(pool.back());
        pool.pop_back();
        args.clear();
      }
      args.reserve(node.children.size());
      for (uint32_t child : node.children) {
        NT_ASSIGN_OR_RETURN(Value v, EvalNode(expr, child, frame));
        args.push_back(std::move(v));
      }
      Result<Value> r = (*node.fn)(args);
      pool.push_back(std::move(args));
      return r;
    }
    case CompiledExpr::Op::kBinary: {
      // Short-circuit logical operators.
      if (node.bin_op == BinOp::kAnd || node.bin_op == BinOp::kOr) {
        NT_ASSIGN_OR_RETURN(Value lhs,
                            EvalNode(expr, node.children[0], frame));
        bool l = lhs.Truthy();
        if (node.bin_op == BinOp::kAnd && !l) return Value::Bool(false);
        if (node.bin_op == BinOp::kOr && l) return Value::Bool(true);
        NT_ASSIGN_OR_RETURN(Value rhs,
                            EvalNode(expr, node.children[1], frame));
        return Value::Bool(rhs.Truthy());
      }
      NT_ASSIGN_OR_RETURN(Value lhs, EvalNode(expr, node.children[0], frame));
      NT_ASSIGN_OR_RETURN(Value rhs, EvalNode(expr, node.children[1], frame));
      switch (node.bin_op) {
        case BinOp::kEq:
          return Value::Bool(lhs == rhs);
        case BinOp::kNe:
          return Value::Bool(lhs != rhs);
        case BinOp::kLt:
          return Value::Bool(lhs < rhs);
        case BinOp::kLe:
          return Value::Bool(lhs <= rhs);
        case BinOp::kGt:
          return Value::Bool(lhs > rhs);
        case BinOp::kGe:
          return Value::Bool(lhs >= rhs);
        default:
          return EvalArith(node.bin_op, lhs, rhs);
      }
    }
    case CompiledExpr::Op::kUnary: {
      NT_ASSIGN_OR_RETURN(Value v, EvalNode(expr, node.children[0], frame));
      if (node.un_op == UnOp::kNot) return Value::Bool(!v.Truthy());
      if (v.is_int()) {
        // -INT64_MIN is not representable (UB if computed).
        if (v.as_int() == INT64_MIN) {
          return Status::RuntimeError("integer overflow in negation");
        }
        return Value::Int(-v.as_int());
      }
      if (v.is_double()) return Value::Double(-v.as_double());
      return Status::TypeError("negation of non-numeric value");
    }
    case CompiledExpr::Op::kList: {
      ValueList out;
      out.reserve(node.children.size());
      for (uint32_t child : node.children) {
        NT_ASSIGN_OR_RETURN(Value v, EvalNode(expr, child, frame));
        out.push_back(std::move(v));
      }
      return Value::List(std::move(out));
    }
  }
  return Status::RuntimeError("corrupt compiled expression");
}

}  // namespace

Result<CompiledExpr> CompileExpr(const ndlog::Expr& expr, SlotMap* slots) {
  CompiledExpr out;
  NT_ASSIGN_OR_RETURN(out.root, Lower(expr, slots, &out));
  return out;
}

Result<Value> Eval(const CompiledExpr& expr, const Frame& frame) {
  return EvalNode(expr, expr.root, frame);
}

}  // namespace runtime
}  // namespace nettrails
