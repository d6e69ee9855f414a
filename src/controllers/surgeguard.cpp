#include "controllers/surgeguard.hpp"

namespace sg {

SurgeGuard::SurgeGuard(ControllerEnv env, Network& network, Options options) {
  // Both units get their own copy of the (cheap, read-mostly) environment.
  escalator_ = std::make_unique<Escalator>(env, options.escalator);
  if (options.enable_first_responder) {
    first_responder_ = std::make_unique<FirstResponder>(std::move(env), network);
  }
}

void SurgeGuard::start() {
  escalator_->start();
  if (first_responder_) first_responder_->start();
}

}  // namespace sg
