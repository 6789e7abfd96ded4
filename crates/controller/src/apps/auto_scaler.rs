//! The auto-scaler app (§4, evaluated in Fig. 11).
//!
//! "The auto-scaler app leverages application-layer metrics (e.g., tuple
//! queue level and tuple processing time) retrieved from ZooKeeper or
//! workers, and initiates scale up/down operations via control tuples when
//! the metrics reach predefined maximum and minimum thresholds."
//!
//! Each tick the app polls the watched node's workers with `METRIC_REQ`
//! control tuples; when the maximum reported queue depth crosses the high
//! threshold it submits a `SetParallelism(n+1)` reconfiguration request to
//! the coordinator (which the streaming manager executes via the §3.5
//! stable-update procedure); below the low threshold it scales down.

use crate::apps::ControlPlaneApp;
use crate::control::ControlTuple;
use crate::controller::Controller;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use typhoon_model::{AppId, ReconfigOp, ReconfigRequest, TaskId};

/// Scaling policy for one watched node.
#[derive(Debug, Clone)]
pub struct AutoScalerConfig {
    /// Topology name.
    pub topology: String,
    /// The node whose parallelism is managed.
    pub node: String,
    /// Metric name polled from workers.
    pub metric: String,
    /// Scale up when the max reported value exceeds this.
    pub high_watermark: i64,
    /// Scale down when the max reported value falls below this.
    pub low_watermark: i64,
    /// Never fewer tasks than this.
    pub min_parallelism: usize,
    /// Never more tasks than this.
    pub max_parallelism: usize,
    /// Minimum time between scaling actions (damping).
    pub cooldown: Duration,
}

/// The auto-scaler.
pub struct AutoScaler {
    config: AutoScalerConfig,
    watched_app: Option<AppId>,
    readings: HashMap<TaskId, i64>,
    /// No scaling action before this instant (the cooldown after the last
    /// accepted one).
    quiet_until: Option<Instant>,
    next_request: u64,
    /// Scale-ups the coordinator accepted (observability).
    pub scale_ups: u64,
    /// Scale-downs the coordinator accepted (observability).
    pub scale_downs: u64,
    /// Scaling requests the coordinator refused; the next tick retries.
    pub failed_submits: u64,
}

impl AutoScaler {
    /// A scaler for one node.
    pub fn new(config: AutoScalerConfig) -> Self {
        AutoScaler {
            config,
            watched_app: None,
            readings: HashMap::new(),
            quiet_until: None,
            next_request: 1,
            scale_ups: 0,
            scale_downs: 0,
            failed_submits: 0,
        }
    }

    fn in_cooldown(&self, now: Instant) -> bool {
        self.quiet_until.is_some_and(|t| now < t)
    }

    /// The scaling decision given current readings and parallelism;
    /// factored out for direct unit testing.
    fn decide(&self, current: usize) -> Option<usize> {
        let max_depth = *self.readings.values().max()?;
        if max_depth > self.config.high_watermark && current < self.config.max_parallelism {
            Some(current + 1)
        } else if max_depth < self.config.low_watermark && current > self.config.min_parallelism {
            Some(current - 1)
        } else {
            None
        }
    }
}

impl ControlPlaneApp for AutoScaler {
    fn name(&self) -> &'static str {
        "auto-scaler"
    }

    fn on_metric_resp(
        &mut self,
        _ctl: &Controller,
        app: AppId,
        task: TaskId,
        _request_id: u64,
        metrics: &[(String, i64)],
    ) {
        if self.watched_app.is_some() && self.watched_app != Some(app) {
            return; // another application's worker
        }
        if let Some((_, v)) = metrics.iter().find(|(k, _)| *k == self.config.metric) {
            self.readings.insert(task, *v);
        }
    }

    fn on_tick(&mut self, ctl: &Controller, now: Instant) {
        let global = ctl.global().clone();
        let (logical, physical) = match (
            global.get_logical(&self.config.topology),
            global.get_physical(&self.config.topology),
        ) {
            (Ok(l), Ok(p)) => (l, p),
            _ => return,
        };
        self.watched_app = Some(physical.app);
        let tasks = physical.tasks_of(&self.config.node);
        // Drop readings from tasks that no longer exist (post-reschedule).
        self.readings.retain(|t, _| tasks.contains(t));
        // Poll for the next round.
        let req = ControlTuple::MetricReq {
            request_id: self.next_request,
        };
        self.next_request += 1;
        ctl.send_control_many(physical.app, &tasks, &req);

        if self.in_cooldown(now) {
            return;
        }
        let current = logical
            .node(&self.config.node)
            .map(|n| n.parallelism)
            .unwrap_or(tasks.len());
        if let Some(target) = self.decide(current) {
            let submitted = global.submit_reconfig(&ReconfigRequest::single(
                &self.config.topology,
                ReconfigOp::SetParallelism {
                    node: self.config.node.clone(),
                    parallelism: target,
                },
            ));
            if submitted.is_err() {
                // Nothing was scaled: no cooldown, and the readings stay
                // for the next tick's retry.
                self.failed_submits += 1;
                return;
            }
            if target > current {
                self.scale_ups += 1;
            } else {
                self.scale_downs += 1;
            }
            self.quiet_until = Some(now + self.config.cooldown);
            self.readings.clear(); // stale after a scale event
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> AutoScaler {
        AutoScaler::new(AutoScalerConfig {
            topology: "t".into(),
            node: "split".into(),
            metric: "queue.depth".into(),
            high_watermark: 100,
            low_watermark: 10,
            min_parallelism: 1,
            max_parallelism: 4,
            cooldown: Duration::from_secs(5),
        })
    }

    #[test]
    fn scales_up_above_high_watermark() {
        let mut s = scaler();
        s.readings.insert(TaskId(1), 150);
        s.readings.insert(TaskId(2), 20);
        assert_eq!(s.decide(2), Some(3));
    }

    #[test]
    fn scales_down_below_low_watermark() {
        let mut s = scaler();
        s.readings.insert(TaskId(1), 2);
        s.readings.insert(TaskId(2), 5);
        assert_eq!(s.decide(3), Some(2));
    }

    #[test]
    fn holds_between_watermarks() {
        let mut s = scaler();
        s.readings.insert(TaskId(1), 50);
        assert_eq!(s.decide(2), None);
    }

    #[test]
    fn respects_parallelism_bounds() {
        let mut s = scaler();
        s.readings.insert(TaskId(1), 1_000);
        assert_eq!(s.decide(4), None, "max reached");
        s.readings.insert(TaskId(1), 0);
        assert_eq!(s.decide(1), None, "min reached");
    }

    #[test]
    fn no_readings_means_no_decision() {
        let s = scaler();
        assert_eq!(s.decide(2), None);
    }

    #[test]
    fn cooldown_suppresses_actions() {
        let mut s = scaler();
        let t0 = Instant::now();
        assert!(!s.in_cooldown(t0));
        s.quiet_until = Some(t0 + Duration::from_secs(5));
        assert!(s.in_cooldown(t0));
        assert!(s.in_cooldown(t0 + Duration::from_millis(4_999)));
        assert!(!s.in_cooldown(t0 + Duration::from_secs(5)));
    }

    /// A scale the coordinator refused is counted as a failure, not as a
    /// scale event, and starts no cooldown: the next tick retries it.
    #[test]
    fn a_refused_submit_is_counted_and_retried_not_counted_as_a_scale() {
        use typhoon_coordinator::global::{GlobalState, RECONFIG};
        use typhoon_coordinator::{Coordinator, CreateMode};
        use typhoon_model::logical::word_count_example;
        use typhoon_model::{HostInfo, LocalityScheduler, Scheduler};

        let global = GlobalState::new(Coordinator::new());
        let logical = word_count_example();
        let physical = LocalityScheduler
            .schedule(AppId(1), &logical, &[HostInfo::new(0, "h0", 16)])
            .unwrap();
        global.set_logical(&logical).unwrap();
        global.set_physical(&physical).unwrap();
        // The first request's sequential name is taken, so its create
        // fails; the directory's counter moves on, so the second succeeds.
        let coord = global.coordinator();
        let dir = format!("{RECONFIG}/{}", logical.name);
        coord.ensure_path(&dir).unwrap();
        let taken = format!("{dir}/req-{:020}", 0);
        coord
            .create(&taken, Vec::new(), CreateMode::Persistent)
            .unwrap();
        let ctl = Controller::new(global.clone());
        let mut s = AutoScaler::new(AutoScalerConfig {
            topology: logical.name.clone(),
            ..scaler().config
        });
        let split = physical.tasks_of("split");
        let report = |s: &mut AutoScaler| {
            for &task in &split {
                let depth = vec![("queue.depth".to_owned(), 500)];
                s.on_metric_resp(&ctl, physical.app, task, 1, &depth);
            }
        };
        let t0 = Instant::now();
        report(&mut s);
        s.on_tick(&ctl, t0);
        assert_eq!((s.scale_ups, s.failed_submits), (0, 1), "refused");
        assert!(!s.in_cooldown(t0), "no cooldown for a scale never made");
        let requests = || coord.children(&dir).unwrap().len();
        assert_eq!(requests(), 1, "only the name that was taken");
        // The next tick retries with the readings it kept.
        let t1 = t0 + Duration::from_millis(100);
        s.on_tick(&ctl, t1);
        assert_eq!((s.scale_ups, s.failed_submits), (1, 1), "accepted");
        assert!(s.in_cooldown(t1));
        assert_eq!(requests(), 2);
        // A third tick inside the cooldown submits nothing.
        report(&mut s);
        s.on_tick(&ctl, t1 + Duration::from_secs(1));
        assert_eq!((s.scale_ups, s.failed_submits), (1, 1));
        assert_eq!(requests(), 2);
    }
}
