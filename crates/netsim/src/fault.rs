//! Link fault injection.
//!
//! The paper's future work calls for observing behaviour "under network
//! anomalies (e.g. variable rates of packet loss)". This module implements
//! that extension in two layers:
//!
//! * **Steady-state loss** applied per packet after serialization (i.e.
//!   in-flight corruption, invisible to the AQM): [`LossModel`].
//! * **Timed faults**: a [`FaultPlan`] — a validated, JSON-round-trippable
//!   list of [`FaultEvent`]s (link flaps, mid-run bandwidth/delay/loss
//!   changes) that the simulator dispatches deterministically through the
//!   event queue's timer wheel, so fixed-seed faulted runs stay
//!   byte-identical.

use crate::rng::{RngExt, SmallRng};
use crate::time::SimDuration;
use crate::units::Bandwidth;
use elephants_json::{impl_json_struct, FromJson, JsonError, ToJson, Value};

/// A random packet-loss process on a link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No induced loss (the default).
    #[default]
    None,
    /// Independent Bernoulli loss with probability `p` per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott two-state burst-loss model.
    ///
    /// In the Good state packets always survive; in the Bad state they are
    /// always lost. `p_gb` is the per-packet probability of Good→Bad and
    /// `p_bg` of Bad→Good.
    GilbertElliott {
        /// P(Good → Bad) per packet.
        p_gb: f64,
        /// P(Bad → Good) per packet.
        p_bg: f64,
    },
}

impl ToJson for LossModel {
    fn to_json(&self) -> Value {
        match *self {
            LossModel::None => Value::Str("None".to_string()),
            LossModel::Bernoulli { p } => Value::Object(vec![(
                "Bernoulli".to_string(),
                Value::Object(vec![("p".to_string(), p.to_json())]),
            )]),
            LossModel::GilbertElliott { p_gb, p_bg } => Value::Object(vec![(
                "GilbertElliott".to_string(),
                Value::Object(vec![
                    ("p_gb".to_string(), p_gb.to_json()),
                    ("p_bg".to_string(), p_bg.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for LossModel {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) if s == "None" => Ok(LossModel::None),
            Value::Object(fields) => match fields.first().map(|(k, _)| k.as_str()) {
                Some("Bernoulli") => {
                    let body = v.get_field("Bernoulli")?;
                    Ok(LossModel::Bernoulli { p: f64::from_json(body.get_field("p")?)? })
                }
                Some("GilbertElliott") => {
                    let body = v.get_field("GilbertElliott")?;
                    Ok(LossModel::GilbertElliott {
                        p_gb: f64::from_json(body.get_field("p_gb")?)?,
                        p_bg: f64::from_json(body.get_field("p_bg")?)?,
                    })
                }
                _ => Err(JsonError::new("unknown LossModel variant".to_string())),
            },
            other => Err(JsonError::new(format!(
                "expected LossModel, got {}",
                other.kind_name()
            ))),
        }
    }
}

impl LossModel {
    /// Validate probabilities are in range.
    pub fn validate(&self) -> Result<(), String> {
        let ok = |p: f64| (0.0..=1.0).contains(&p);
        match *self {
            LossModel::None => Ok(()),
            LossModel::Bernoulli { p } if ok(p) => Ok(()),
            LossModel::GilbertElliott { p_gb, p_bg } if ok(p_gb) && ok(p_bg) => Ok(()),
            _ => Err(format!("loss model probability out of [0,1]: {self:?}")),
        }
    }
}

/// Runtime state for a [`LossModel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LossState {
    in_bad_state: bool,
}

impl LossState {
    /// Decide whether the next packet is lost.
    pub fn should_drop(&mut self, model: &LossModel, rng: &mut SmallRng) -> bool {
        match *model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.random::<f64>() < p,
            LossModel::GilbertElliott { p_gb, p_bg } => {
                if self.in_bad_state {
                    if rng.random::<f64>() < p_bg {
                        self.in_bad_state = false;
                    }
                } else if rng.random::<f64>() < p_gb {
                    self.in_bad_state = true;
                }
                self.in_bad_state
            }
        }
    }
}

/// One state change applied to a link at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take the link down: every packet offered or dequeued while down is
    /// destroyed (and counted), as on a dark fiber cut.
    LinkDown,
    /// Bring the link back up; transmission resumes from the backlog.
    LinkUp,
    /// Change the serialization rate (mid-run capacity change).
    SetBandwidth(Bandwidth),
    /// Change the one-way propagation delay (mid-run RTT change).
    SetDelay(SimDuration),
    /// Swap the random-loss process (variable loss rate).
    SetLossModel(LossModel),
}

impl ToJson for FaultAction {
    fn to_json(&self) -> Value {
        match *self {
            FaultAction::LinkDown => Value::Str("LinkDown".to_string()),
            FaultAction::LinkUp => Value::Str("LinkUp".to_string()),
            FaultAction::SetBandwidth(bw) => {
                Value::Object(vec![("SetBandwidth".to_string(), bw.to_json())])
            }
            FaultAction::SetDelay(d) => Value::Object(vec![("SetDelay".to_string(), d.to_json())]),
            FaultAction::SetLossModel(m) => {
                Value::Object(vec![("SetLossModel".to_string(), m.to_json())])
            }
        }
    }
}

impl FromJson for FaultAction {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) if s == "LinkDown" => Ok(FaultAction::LinkDown),
            Value::Str(s) if s == "LinkUp" => Ok(FaultAction::LinkUp),
            Value::Object(fields) => match fields.first().map(|(k, _)| k.as_str()) {
                Some("SetBandwidth") => {
                    Ok(FaultAction::SetBandwidth(Bandwidth::from_json(v.get_field("SetBandwidth")?)?))
                }
                Some("SetDelay") => {
                    Ok(FaultAction::SetDelay(SimDuration::from_json(v.get_field("SetDelay")?)?))
                }
                Some("SetLossModel") => {
                    Ok(FaultAction::SetLossModel(LossModel::from_json(v.get_field("SetLossModel")?)?))
                }
                _ => Err(JsonError::new("unknown FaultAction variant".to_string())),
            },
            other => Err(JsonError::new(format!(
                "expected FaultAction, got {}",
                other.kind_name()
            ))),
        }
    }
}

/// A [`FaultAction`] scheduled at a sim-relative time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the action fires, relative to simulation start.
    pub at: SimDuration,
    /// What happens.
    pub action: FaultAction,
}

impl_json_struct!(FaultEvent { at, action });

/// A time-ordered list of [`FaultEvent`]s for one link.
///
/// Installed on a simulator with `Simulator::install_fault_plan`; each
/// event is scheduled through the ordinary event queue so faulted runs
/// share the engine's exact `(time, seq)` total order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The timed actions, in non-decreasing time order.
    pub events: Vec<FaultEvent>,
}

impl_json_struct!(FaultPlan { events });

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A link flap: down at `start`, back up `outage` later.
    pub fn flap(start: SimDuration, outage: SimDuration) -> Self {
        FaultPlan {
            events: vec![
                FaultEvent { at: start, action: FaultAction::LinkDown },
                FaultEvent { at: start + outage, action: FaultAction::LinkUp },
            ],
        }
    }

    /// Append an event (builder style).
    pub fn with(mut self, at: SimDuration, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Validate ordering and every embedded model.
    ///
    /// Events must be in non-decreasing time order (the plan is a schedule,
    /// not a set — out-of-order entries almost certainly mean a typo'd
    /// timestamp) and every `SetLossModel` payload must itself validate.
    pub fn validate(&self) -> Result<(), String> {
        for w in self.events.windows(2) {
            if w[1].at < w[0].at {
                return Err(format!(
                    "fault events out of order: {:?} after {:?}",
                    w[1].at, w[0].at
                ));
            }
        }
        for ev in &self.events {
            if let FaultAction::SetLossModel(m) = &ev.action {
                m.validate()?;
            }
            if let FaultAction::SetBandwidth(bw) = &ev.action {
                if bw.as_bps() == 0 {
                    return Err("SetBandwidth to zero: use LinkDown instead".to_string());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedableRng;

    #[test]
    fn none_never_drops() {
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(!st.should_drop(&LossModel::None, &mut rng));
        }
    }

    #[test]
    fn bernoulli_rate_close_to_p() {
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 100_000;
        let model = LossModel::Bernoulli { p: 0.05 };
        let mut drops = 0;
        for _ in 0..n {
            if st.should_drop(&model, &mut rng) {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let mut st = LossState::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let model = LossModel::GilbertElliott { p_gb: 0.01, p_bg: 0.2 };
        let mut runs = vec![];
        let mut cur = 0u32;
        for _ in 0..200_000 {
            if st.should_drop(&model, &mut rng) {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        // Mean burst length should approach 1/p_bg = 5.
        let mean = runs.iter().copied().sum::<u32>() as f64 / runs.len() as f64;
        assert!(mean > 3.0 && mean < 7.0, "mean burst {mean}");
    }

    #[test]
    fn validate_rejects_bad_probability() {
        assert!(LossModel::Bernoulli { p: 1.5 }.validate().is_err());
        assert!(LossModel::Bernoulli { p: 0.5 }.validate().is_ok());
        assert!(LossModel::GilbertElliott { p_gb: -0.1, p_bg: 0.5 }.validate().is_err());
    }

    #[test]
    fn fault_plan_flap_round_trips_json() {
        let plan = FaultPlan::flap(SimDuration::from_secs(3), SimDuration::from_secs(2))
            .with(
                SimDuration::from_secs(6),
                FaultAction::SetLossModel(LossModel::GilbertElliott { p_gb: 0.01, p_bg: 0.2 }),
            )
            .with(SimDuration::from_secs(8), FaultAction::SetBandwidth(Bandwidth::from_mbps(50)))
            .with(SimDuration::from_secs(9), FaultAction::SetDelay(SimDuration::from_millis(10)));
        assert!(plan.validate().is_ok());
        let json = plan.to_json_string();
        let back = FaultPlan::from_json_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn fault_plan_validation_rejects_misordered_and_bad_payloads() {
        let mut plan = FaultPlan::flap(SimDuration::from_secs(5), SimDuration::from_secs(1));
        plan.events.swap(0, 1);
        assert!(plan.validate().is_err(), "out-of-order events must be rejected");

        let bad_loss = FaultPlan::none().with(
            SimDuration::from_secs(1),
            FaultAction::SetLossModel(LossModel::Bernoulli { p: 2.0 }),
        );
        assert!(bad_loss.validate().is_err());

        let zero_bw = FaultPlan::none()
            .with(SimDuration::from_secs(1), FaultAction::SetBandwidth(Bandwidth::ZERO));
        assert!(zero_bw.validate().is_err());

        assert!(FaultPlan::none().validate().is_ok());
    }
}
