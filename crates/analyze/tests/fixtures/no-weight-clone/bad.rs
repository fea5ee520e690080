//! Fixture: weight sets cloned per session. Every one of these turns a
//! shared-fleet deployment into N private copies of the same weights.

pub struct Engine {
    model_1d: Bundle,
    owned_bundle: Option<Bundle>,
}

impl Engine {
    pub fn spawn(&self, bundle: &Bundle, net: &Network) -> Vec<Bundle> {
        let mine = bundle.clone();
        let also_mine = self.model_1d.clone();
        let trained_network = net.clone();
        let _ = trained_network;
        let per_session = self.owned_bundle.clone();
        let _ = per_session;
        vec![mine, also_mine]
    }
}
