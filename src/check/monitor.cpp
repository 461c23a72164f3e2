#include "check/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

namespace canely::check {

bool is_infix(const std::vector<can::NodeSet>& a,
              const std::vector<can::NodeSet>& b) {
  if (a.size() > b.size()) return is_infix(b, a);
  if (a.empty()) return true;
  for (std::size_t off = 0; off + a.size() <= b.size(); ++off) {
    bool match = true;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[off + i]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

namespace {

/// Build a string from streamable pieces: cat_str("node ", 3, " failed").
template <typename... Args>
[[nodiscard]] std::string cat_str(Args&&... args) {
  std::ostringstream os;
  (os << ... << std::forward<Args>(args));
  return os.str();
}

std::string seq_str(const std::vector<can::NodeSet>& seq) {
  std::string out = "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i != 0) out += " ";
    out += cat_str(seq[i]);
  }
  return out + "]";
}

void hash_string(sim::StateHasher& h, const std::string& s) {
  h.feed(s.size());
  for (char c : s) h.feed(static_cast<std::uint8_t>(c));
}

}  // namespace

// ---------------------------------------------------------------- FDA

void FdaAgreementMonitor::on_fda_nty(can::NodeId at, can::NodeId failed,
                                     sim::Time when) {
  if (at >= n_ || failed >= n_) return;  // outside the judged table
  Delivery& d = s_.first[at * n_ + failed];
  if (!d.delivered) {
    d.delivered = true;
    d.when = when;
  }
}

void FdaAgreementMonitor::finish(const EndState& end,
                                 std::vector<Violation>& out) {
  const can::NodeSet correct = end.nodes.minus(end.crashed);
  for (can::NodeId failed : end.nodes) {
    // Validity: a delivered failure-sign names a node that crashed first.
    for (can::NodeId at : correct) {
      const Delivery& d = first(at, failed);
      if (!d.delivered) continue;
      if (!end.crashed.contains(failed) ||
          end.crash_time[failed] >= d.when) {
        out.push_back(Violation{
            std::string{name()}, d.when,
            cat_str("n", int{at}, " delivered failure-sign for node ",
                    int{failed}, " which had not crashed")});
      }
    }
    // Agreement: earliest correct-node delivery obligates every correct
    // node — unless it arose inside the settle window, where the
    // laggards' deadline lies beyond the end of the run.
    sim::Time earliest = sim::Time::max();
    for (can::NodeId at : correct) {
      const Delivery& d = first(at, failed);
      if (d.delivered && d.when < earliest) earliest = d.when;
    }
    if (earliest == sim::Time::max() || earliest > end.end - end.settle) {
      continue;
    }
    for (can::NodeId at : correct) {
      if (!first(at, failed).delivered) {
        out.push_back(Violation{
            std::string{name()}, end.end,
            cat_str("failure-sign for node ", int{failed},
                    " delivered at some correct node (first ",
                    earliest, ") but never at n", int{at})});
      }
    }
  }
}

void FdaAgreementMonitor::hash_state(sim::StateHasher& h,
                                     std::size_t n) const {
  // Full first-delivery table for the n scenario nodes: finish() reads
  // exactly these coordinates plus the EndState (which the harness feeds
  // separately).  The harness passes n == n_, the table's own size.
  for (std::size_t at = 0; at < n; ++at) {
    for (std::size_t failed = 0; failed < n; ++failed) {
      const Delivery& d = first(at, failed);
      h.feed_bool(d.delivered);
      if (d.delivered) h.feed_time(d.when);
    }
  }
}

// ---------------------------------------------------------------- RHA

void RhaAgreementMonitor::on_rha_end(can::NodeId at, can::NodeSet agreed,
                                     sim::Time /*when*/) {
  if (at >= s_.seqs.size()) return;  // outside the judged scenario
  s_.seqs[at].push_back(agreed);
}

void RhaAgreementMonitor::finish(const EndState& end,
                                 std::vector<Violation>& out) {
  const can::NodeSet correct = end.nodes.minus(end.crashed);
  for (can::NodeId a : correct) {
    for (can::NodeId b : correct) {
      if (b <= a) continue;
      if (s_.seqs[a].empty() || s_.seqs[b].empty()) continue;
      if (!is_infix(s_.seqs[a], s_.seqs[b])) {
        out.push_back(Violation{
            std::string{name()}, end.end,
            cat_str("agreed-RHV sequences diverge: n", int{a}, "=",
                    seq_str(s_.seqs[a]), " n", int{b}, "=",
                    seq_str(s_.seqs[b]))});
      }
    }
  }
}

void RhaAgreementMonitor::hash_state(sim::StateHasher& h,
                                     std::size_t n) const {
  for (std::size_t at = 0; at < n; ++at) {
    h.feed(s_.seqs[at].size());
    for (can::NodeSet agreed : s_.seqs[at]) h.feed(agreed.bits());
  }
}

// --------------------------------------------------------- membership

void ViewConsistencyMonitor::on_view_installed(can::NodeId at,
                                               can::NodeSet view,
                                               sim::Time when) {
  if (at >= s_.installs.size()) return;  // outside the judged scenario
  s_.installs[at].push_back(Install{when, view});
}

void ViewConsistencyMonitor::finish(const EndState& end,
                                    std::vector<Violation>& out) {
  const can::NodeSet correct = end.nodes.minus(end.crashed);
  const can::NodeSet members = end.members_at_end.intersected(correct);

  // Install-sequence agreement (common-prefix rule): once the join phase
  // has settled into an agreed view (converge_by), surviving members
  // must walk through the very same succession of views.  The only
  // tolerated difference is a tail of installs the shorter node had
  // still in flight when the run ended — each surplus install must fall
  // inside the settle window.  A node that skips a view the others
  // installed mid-run (or installs one they never do) diverged.  Installs
  // before converge_by are exempt (bootstrap histories legitimately
  // differ, Fig. 9 s18-s19), and the comparison binds current members
  // only: a node expelled while alive stops cycling, and membership
  // agreement no longer applies to it.
  std::vector<std::vector<Install>> settledseq(s_.installs.size());
  for (can::NodeId m : members) {
    for (const Install& in : s_.installs[m]) {
      if (in.when >= converge_by_) settledseq[m].push_back(in);
    }
  }
  const auto seq_str = [&settledseq](can::NodeId node) {
    std::string text = "[";
    for (std::size_t i = 0; i < settledseq[node].size(); ++i) {
      if (i != 0) text += " ";
      text += cat_str(settledseq[node][i].view);
    }
    return text + "]";
  };
  const sim::Time settled = end.end - end.settle;
  for (can::NodeId a : members) {
    for (can::NodeId b : members) {
      if (b <= a) continue;
      const auto& sa = settledseq[a];
      const auto& sb = settledseq[b];
      const auto& shorter = sa.size() <= sb.size() ? sa : sb;
      const auto& longer = sa.size() <= sb.size() ? sb : sa;
      bool prefix = true;
      for (std::size_t i = 0; i < shorter.size(); ++i) {
        if (shorter[i].view != longer[i].view) {
          prefix = false;
          break;
        }
      }
      if (!prefix) {
        out.push_back(Violation{
            std::string{name()}, end.end,
            cat_str("view sequences diverge: n", int{a}, "=",
                    seq_str(a), " n", int{b}, "=", seq_str(b))});
        continue;
      }
      for (std::size_t i = shorter.size(); i < longer.size(); ++i) {
        if (longer[i].when <= settled) {
          out.push_back(Violation{
              std::string{name()}, longer[i].when,
              cat_str("view ", longer[i].view, " installed at only one "
                      "of n", int{a}, "=", seq_str(a), " n", int{b},
                      "=", seq_str(b), " well before the end")});
          break;
        }
      }
    }
  }

  // Final-view agreement among surviving members.
  bool have_ref = false;
  can::NodeId ref_node = 0;
  can::NodeSet ref;
  for (can::NodeId m : members) {
    if (!have_ref) {
      have_ref = true;
      ref_node = m;
      ref = end.final_view[m];
    } else if (end.final_view[m] != ref) {
      out.push_back(Violation{
          std::string{name()}, end.end,
          cat_str("final views differ: n", int{ref_node}, "=", ref,
                  " n", int{m}, "=", end.final_view[m])});
    }
  }

  // Expulsion: a node crashed long enough ago (detection + one cycle +
  // agreement, all inside the run) must be out of every survivor's view.
  for (can::NodeId c : end.crashed) {
    if (end.crash_time[c] > end.end - expel_grace_) continue;
    for (can::NodeId m : members) {
      if (end.final_view[m].contains(c)) {
        out.push_back(Violation{
            std::string{name()}, end.end,
            cat_str("n", int{m}, " still has node ", int{c},
                    " (crashed at ", end.crash_time[c],
                    ") in its final view ", end.final_view[m])});
      }
    }
  }
}

void ViewConsistencyMonitor::hash_state(sim::StateHasher& h,
                                        std::size_t n) const {
  // Full install history (time + view); expel_grace_/converge_by_ are
  // immutable scenario configuration and not fed.
  for (std::size_t at = 0; at < n; ++at) {
    h.feed(s_.installs[at].size());
    for (const Install& in : s_.installs[at]) {
      h.feed_time(in.when);
      h.feed(in.view.bits());
    }
  }
}

// --------------------------------------------------------- fail-silence

void FailSilenceMonitor::on_crash(can::NodeId node, sim::Time when) {
  if (!s_.crashed.contains(node)) {
    s_.crashed.insert(node);
    s_.crash_time[node] = when;
  }
}

void FailSilenceMonitor::on_tx(const can::TxRecord& rec) {
  for (can::NodeId co : rec.co_transmitters) {
    if (s_.crashed.contains(co) && rec.start > s_.crash_time[co]) {
      s_.pending.push_back(Violation{
          std::string{name()}, rec.start,
          cat_str("frame id=", rec.frame.id, " co-transmitted by node ",
                  int{co}, " after its crash at ", s_.crash_time[co])});
    }
  }
}

void FailSilenceMonitor::finish(const EndState& /*end*/,
                                std::vector<Violation>& out) {
  out.insert(out.end(), s_.pending.begin(), s_.pending.end());
}

void FailSilenceMonitor::hash_state(sim::StateHasher& h,
                                    std::size_t n) const {
  h.feed(s_.crashed.bits());
  for (std::size_t c = 0; c < n; ++c) {
    if (s_.crashed.contains(static_cast<can::NodeId>(c))) {
      h.feed_time(s_.crash_time[c]);
    }
  }
  // Violations buffered for finish(): already-observed babbling is part
  // of the run's verdict, so it must separate equivalence classes.
  h.feed(s_.pending.size());
  for (const Violation& v : s_.pending) {
    hash_string(h, v.monitor);
    h.feed_time(v.when);
    hash_string(h, v.detail);
  }
}

// ---------------------------------------------------- detection latency

void DetectionLatencyMonitor::on_fda_nty(can::NodeId at, can::NodeId failed,
                                         sim::Time when) {
  s_.deliveries.push_back(Delivery{at, failed, when});
}

void DetectionLatencyMonitor::on_view_installed(can::NodeId at,
                                                can::NodeSet /*view*/,
                                                sim::Time when) {
  if (!s_.has_install[at]) {
    s_.has_install[at] = true;
    s_.first_install[at] = when;
  }
}

void DetectionLatencyMonitor::finish(const EndState& end,
                                     std::vector<Violation>& out) {
  for (const Delivery& d : s_.deliveries) {
    if (!end.crashed.contains(d.failed)) continue;  // validity is FDA's job
    // Surveillance of a node starts no later than the observer's first
    // view install (msh-data-proc); a crash before that is detectable
    // only from then on.
    if (!s_.has_install[d.at]) continue;
    const sim::Time ref = std::max(end.crash_time[d.failed],
                                   s_.first_install[d.at]);
    if (d.when > ref + bound_) {
      out.push_back(Violation{
          std::string{name()}, d.when,
          cat_str("n", int{d.at}, " detected crash of node ",
                  int{d.failed}, " only at ", d.when, " (crash ",
                  end.crash_time[d.failed], ", bound ", bound_, ")")});
    }
  }
}

void DetectionLatencyMonitor::hash_state(sim::StateHasher& h,
                                         std::size_t n) const {
  h.feed(s_.deliveries.size());
  for (const Delivery& d : s_.deliveries) {
    h.feed(d.at);
    h.feed(d.failed);
    h.feed_time(d.when);
  }
  for (std::size_t at = 0; at < n; ++at) {
    h.feed_bool(s_.has_install[at]);
    if (s_.has_install[at]) h.feed_time(s_.first_install[at]);
  }
}

}  // namespace canely::check
