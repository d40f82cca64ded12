#include "src/provenance/store.h"

#include <algorithm>

namespace nettrails {
namespace provenance {

using runtime::Table;
using runtime::ValueToVid;

ProvStore::ProvStore(runtime::Engine* engine) : engine_(engine), key_(1) {
  engine_->IndexProvenanceViews();
}

const std::vector<Table::RowHandle>* ProvStore::Probe(
    const runtime::Engine::IndexedView& view, const Value& id) const {
  if (view.table == nullptr) return nullptr;
  key_[0] = id;
  return view.table->Probe(view.index, key_);
}

ExecEntry ProvStore::ExecOf(const Table::Row& row) {
  static const ValueList kNoInputs;
  const ValueList& f = row.fields;
  return {f[2].is_string() ? std::string_view(f[2].as_string()) : "?",
          VidRange{f[3].is_list() ? &f[3].as_list() : &kNoInputs}, row.count};
}

std::optional<ExecEntry> ProvStore::ExecFor(Vid rid) const {
  const runtime::Engine::IndexedView& exec = engine_->rule_exec_view();
  const Value id = runtime::VidToValue(rid);
  const std::vector<Table::RowHandle>* rows = Probe(exec, id);
  if (rows == nullptr) return std::nullopt;
  for (Table::RowHandle h : *rows) {
    const Table::Row& row = exec.table->Deref(h);
    if (row.fields.size() == kRuleExecArity && row.fields[kVertexIdPos] == id) {
      return ExecOf(row);
    }
  }
  return std::nullopt;
}

std::vector<Vid> ProvStore::AllVids() const {
  std::vector<Vid> out;
  const Table* prov = engine_->prov_view().table;
  if (prov == nullptr) return out;
  for (Table::RowHandle h : prov->OrderedView()) {
    const ValueList& f = prov->Deref(h).fields;
    if (f.size() == kProvArity) out.push_back(ValueToVid(f[kVertexIdPos]));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t ProvStore::edge_count() const {
  const Table* prov = engine_->prov_view().table;
  return prov == nullptr ? 0 : prov->size();
}

size_t ProvStore::exec_count() const {
  const Table* exec = engine_->rule_exec_view().table;
  return exec == nullptr ? 0 : exec->size();
}

std::string ProvStore::CanonicalGraph() const {
  std::vector<std::string> lines;
  lines.reserve(edge_count() + exec_count());
  if (const Table* prov = engine_->prov_view().table) {
    for (Table::RowHandle h : prov->OrderedView()) {
      const Table::Row& row = prov->Deref(h);
      if (row.fields.size() != kProvArity) continue;
      const ProvEdge e = EdgeOf(row);
      lines.push_back("edge " +
                      std::to_string(ValueToVid(row.fields[kVertexIdPos])) +
                      " <- rid=" + std::to_string(e.rid) + " @" +
                      std::to_string(e.rloc) + (e.maybe ? " maybe" : "") +
                      " x" + std::to_string(e.count));
    }
  }
  if (const Table* exec = engine_->rule_exec_view().table) {
    for (Table::RowHandle h : exec->OrderedView()) {
      const Table::Row& row = exec->Deref(h);
      if (row.fields.size() != kRuleExecArity) continue;
      const ExecEntry entry = ExecOf(row);
      std::string line =
          "exec " + std::to_string(ValueToVid(row.fields[kVertexIdPos])) +
          " " + std::string(entry.rule) + "(";
      for (size_t i = 0; i < entry.inputs.size(); ++i) {
        if (i > 0) line += ",";
        line += std::to_string(entry.inputs[i]);
      }
      line += ") x" + std::to_string(entry.count);
      lines.push_back(std::move(line));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace provenance
}  // namespace nettrails
