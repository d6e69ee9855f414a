// SurgeGuard: the complete controller (paper Fig. 7) = FirstResponder (fast
// per-packet frequency path) + Escalator (slow precise core/frequency path)
// on each node. State synchronization between the two (shFreq/shCores in
// the paper) is the containers' allocation state itself, which both units
// read and write.
#pragma once

#include <memory>

#include "controllers/escalator.hpp"
#include "controllers/first_responder.hpp"

namespace sg {

class SurgeGuard final : public Controller {
 public:
  struct Options {
    Escalator::Options escalator{};
    /// Disables the fast path (yields the "Escalator alone" configuration
    /// of Fig. 10).
    bool enable_first_responder = true;
  };

  SurgeGuard(ControllerEnv env, Network& network, Options options);
  SurgeGuard(ControllerEnv env, Network& network)
      : SurgeGuard(std::move(env), network, Options()) {}

  std::string name() const override { return "surgeguard"; }
  void start() override;

  FirstResponder* first_responder() { return first_responder_.get(); }

 private:
  std::unique_ptr<Escalator> escalator_;
  std::unique_ptr<FirstResponder> first_responder_;
};

}  // namespace sg
