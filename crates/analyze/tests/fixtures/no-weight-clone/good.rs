//! Fixture: the sanctioned sharing idioms. Handles come from
//! `Arc::clone`, cheap metadata strings may be cloned freely, and a
//! genuinely per-copy site carries an inline allow.

use std::sync::Arc;

pub struct Engine {
    model_1d: Arc<Bundle>,
    owned_bundle: Option<Bundle>,
}

impl Engine {
    pub fn spawn(&self, spec: &Spec, base_model: &Bundle) -> Session {
        let shared = Arc::clone(&self.model_1d);
        let name = spec.scenario.clone();
        let frozen = self.frozen.clone();
        // Borrowed, rebuilt into a private network where one is needed.
        let copies = self.owned_bundle.as_ref().map(Bundle::solver);
        // analyze:allow(no-weight-clone): mutation fuzzing needs a private weight copy per trial
        let scratch = base_model.clone();
        Session::new(shared, frozen, copies, name, scratch)
    }
}
