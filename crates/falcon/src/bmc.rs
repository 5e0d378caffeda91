//! The baseboard management controller (OpenBMC-style).
//!
//! The Falcon's BMC "manages and monitors most of the standard buses in
//! the system, as well as temperature, fan sensors, storage devices, and
//! network \[and\] can alert administrators to any parameters which fall
//! outside of specifications" (paper §II-B). The model here is a
//! deterministic thermal/fan loop driven by device load, with thresholds
//! that emit alert events into a queryable log.

use desim::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warning,
    Critical,
}

/// One entry in the BMC event log.
#[derive(Debug, Clone, PartialEq)]
pub struct BmcEvent {
    pub at: SimTime,
    pub severity: Severity,
    pub sensor: String,
    pub message: String,
}

/// A temperature sensor with warning/critical thresholds (°C).
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSensor {
    pub name: String,
    pub ambient_c: f64,
    /// Temperature rise at 100 % load with fans at base speed.
    pub rise_at_full_load_c: f64,
    pub warning_c: f64,
    pub critical_c: f64,
}

impl ThermalSensor {
    /// Steady-state temperature at `load` (0–1) and `fan` (0–1, where 1 is
    /// maximum cooling). Higher fan speed removes up to 40 % of the rise.
    pub fn temperature(&self, load: f64, fan: f64) -> f64 {
        let load = load.clamp(0.0, 1.0);
        let fan = fan.clamp(0.0, 1.0);
        self.ambient_c + self.rise_at_full_load_c * load * (1.0 - 0.4 * fan)
    }
}

/// The BMC: sensors, fan control, and the event log.
#[derive(Debug, Clone, Default)]
pub struct Bmc {
    sensors: BTreeMap<String, ThermalSensor>,
    /// Last reported load per sensor.
    loads: BTreeMap<String, f64>,
    fan_speed: f64,
    /// Sensors whose cooling fan has failed: they see zero airflow no
    /// matter what the controller commands, so a loaded drawer runs all
    /// the way to `ambient + rise` — past the critical threshold.
    failed_fans: BTreeSet<String>,
    log: Vec<BmcEvent>,
}

impl Bmc {
    pub fn new() -> Bmc {
        Bmc {
            fan_speed: 0.3,
            ..Default::default()
        }
    }

    /// A Falcon 4016 BMC with one thermal sensor per drawer and one for the
    /// chassis (the GUI reports "temperature information: drawers and
    /// chassis").
    pub fn falcon_defaults() -> Bmc {
        let mut bmc = Bmc::new();
        for name in ["drawer0", "drawer1", "chassis"] {
            bmc.add_sensor(ThermalSensor {
                name: name.to_string(),
                ambient_c: 24.0,
                rise_at_full_load_c: 46.0,
                // At full load the settled equilibrium is ~58.6 C, so the
                // warning threshold sits below it and critical above it.
                warning_c: 55.0,
                critical_c: 70.0,
            });
        }
        bmc
    }

    pub fn add_sensor(&mut self, sensor: ThermalSensor) {
        self.loads.insert(sensor.name.clone(), 0.0);
        self.sensors.insert(sensor.name.clone(), sensor);
    }

    pub fn fan_speed(&self) -> f64 {
        self.fan_speed
    }

    /// Inject or repair a fan failure on one sensor's cooling zone. With
    /// the fan failed, that sensor cools as if airflow were zero. The
    /// flip is itself a thermal event: thresholds are re-evaluated at
    /// `at`, so a loaded drawer losing its fan raises the alert
    /// immediately rather than at the next load sample.
    pub fn set_fan_failed(&mut self, at: SimTime, sensor: &str, failed: bool) {
        if !self.sensors.contains_key(sensor) {
            return;
        }
        let prev_temp = self.temperature(sensor).expect("known sensor");
        if failed {
            self.failed_fans.insert(sensor.to_string());
        } else {
            self.failed_fans.remove(sensor);
        }
        self.settle_fans();
        self.check_thresholds(at, sensor, prev_temp);
    }

    pub fn fan_failed(&self, sensor: &str) -> bool {
        self.failed_fans.contains(sensor)
    }

    /// The airflow a sensor's zone actually receives.
    fn effective_fan(&self, sensor: &str) -> f64 {
        if self.failed_fans.contains(sensor) {
            0.0
        } else {
            self.fan_speed
        }
    }

    /// Proportional fan control: solve the fan/temperature fixed point
    /// (fan cools, target tracks the hottest sensor) by damped iteration.
    /// The loop gain is < 1 for the Falcon's sensors, so this converges;
    /// iterating to convergence avoids the oscillation a naive
    /// measure-then-react controller exhibits.
    fn settle_fans(&mut self) {
        for _ in 0..32 {
            let hottest = self.hottest_temperature();
            let target = ((hottest - 40.0) / 30.0).clamp(0.3, 1.0);
            if (target - self.fan_speed).abs() < 1e-6 {
                break;
            }
            self.fan_speed = 0.5 * self.fan_speed + 0.5 * target;
        }
    }

    /// Report a load sample for a sensor; the BMC adjusts fans and raises
    /// alerts as thresholds are crossed.
    pub fn report_load(&mut self, at: SimTime, sensor: &str, load: f64) {
        let Some(s) = self.sensors.get(sensor) else {
            return;
        };
        let prev_temp = s.temperature(self.loads[sensor], self.effective_fan(sensor));
        self.loads.insert(sensor.to_string(), load.clamp(0.0, 1.0));
        self.settle_fans();
        self.check_thresholds(at, sensor, prev_temp);
    }

    /// Emit Warning/Critical events on upward threshold crossings from
    /// `prev_temp` to the sensor's current temperature.
    fn check_thresholds(&mut self, at: SimTime, sensor: &str, prev_temp: f64) {
        let s = &self.sensors[sensor];
        let temp = s.temperature(self.loads[sensor], self.effective_fan(sensor));
        if temp >= s.critical_c && prev_temp < s.critical_c {
            self.log.push(BmcEvent {
                at,
                severity: Severity::Critical,
                sensor: sensor.to_string(),
                message: format!("{sensor} at {temp:.1}C exceeds critical {:.1}C", s.critical_c),
            });
        } else if temp >= s.warning_c && prev_temp < s.warning_c {
            self.log.push(BmcEvent {
                at,
                severity: Severity::Warning,
                sensor: sensor.to_string(),
                message: format!("{sensor} at {temp:.1}C exceeds warning {:.1}C", s.warning_c),
            });
        }
    }

    /// Current temperature of a sensor.
    pub fn temperature(&self, sensor: &str) -> Option<f64> {
        let s = self.sensors.get(sensor)?;
        Some(s.temperature(self.loads[sensor], self.effective_fan(sensor)))
    }

    pub fn hottest_temperature(&self) -> f64 {
        self.sensors
            .values()
            .map(|s| s.temperature(self.loads[&s.name], self.effective_fan(&s.name)))
            .fold(0.0, f64::max)
    }

    /// Full event log.
    pub fn events(&self) -> &[BmcEvent] {
        &self.log
    }

    /// Events at or above a severity (the GUI's filtered export).
    pub fn events_at_least(&self, severity: Severity) -> Vec<&BmcEvent> {
        self.log.iter().filter(|e| e.severity >= severity).collect()
    }

    /// Record an informational event (device hot-plug, reassignment, …).
    pub fn log_info(&mut self, at: SimTime, sensor: &str, message: impl Into<String>) {
        self.log.push(BmcEvent {
            at,
            severity: Severity::Info,
            sensor: sensor.to_string(),
            message: message.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_chassis_is_cool() {
        let bmc = Bmc::falcon_defaults();
        let temp = bmc.temperature("drawer0").unwrap();
        assert!((temp - 24.0).abs() < 1e-9, "idle = ambient: {temp}");
    }

    #[test]
    fn load_raises_temperature_and_fan() {
        let mut bmc = Bmc::falcon_defaults();
        let f0 = bmc.fan_speed();
        bmc.report_load(t(1), "drawer0", 1.0);
        let temp = bmc.temperature("drawer0").unwrap();
        assert!(temp > 45.0, "{temp}");
        assert!(bmc.fan_speed() > f0);
    }

    #[test]
    fn warning_event_emitted_once_per_crossing() {
        let mut bmc = Bmc::falcon_defaults();
        bmc.report_load(t(1), "drawer0", 1.0);
        bmc.report_load(t(2), "drawer0", 1.0); // still hot: no duplicate
        let warns = bmc.events_at_least(Severity::Warning).len();
        assert_eq!(warns, 1, "events: {:?}", bmc.events());
    }

    #[test]
    fn cooling_then_reheating_emits_again() {
        let mut bmc = Bmc::falcon_defaults();
        bmc.report_load(t(1), "drawer0", 1.0);
        bmc.report_load(t(2), "drawer0", 0.0);
        bmc.report_load(t(3), "drawer0", 1.0);
        assert_eq!(bmc.events_at_least(Severity::Warning).len(), 2);
    }

    #[test]
    fn unknown_sensor_is_ignored() {
        let mut bmc = Bmc::falcon_defaults();
        bmc.report_load(t(1), "nonexistent", 1.0);
        assert!(bmc.events().is_empty());
    }

    #[test]
    fn info_log_and_ordering() {
        let mut bmc = Bmc::falcon_defaults();
        bmc.log_info(t(1), "drawer0", "GPU hot-plugged in d0s3");
        bmc.log_info(t(2), "drawer0", "GPU reassigned to host 2");
        assert_eq!(bmc.events().len(), 2);
        assert!(bmc.events()[0].at < bmc.events()[1].at);
        assert!(bmc.events_at_least(Severity::Warning).is_empty());
    }

    #[test]
    fn fan_failure_drives_a_loaded_drawer_critical() {
        let mut bmc = Bmc::falcon_defaults();
        // A healthy fan keeps full load below critical (≈58.6 C settled).
        bmc.report_load(t(1), "drawer0", 1.0);
        assert!(bmc.events_at_least(Severity::Critical).is_empty());
        // Fan failure at full load: 24 + 46·1.0·(1 − 0) = 70 ≥ critical,
        // and the flip itself raises the alert.
        bmc.set_fan_failed(t(2), "drawer0", true);
        assert!(bmc.fan_failed("drawer0"));
        assert_eq!(bmc.events_at_least(Severity::Critical).len(), 1);
        // Only the failed zone overheats; its repair restores cooling.
        assert!(bmc.temperature("drawer1").unwrap() < 60.0);
        bmc.set_fan_failed(t(3), "drawer0", false);
        assert!(bmc.temperature("drawer0").unwrap() < 70.0);
        assert_eq!(bmc.events_at_least(Severity::Critical).len(), 1, "no re-trip after repair");
    }

    #[test]
    fn fan_mitigates_temperature() {
        let s = ThermalSensor {
            name: "x".into(),
            ambient_c: 24.0,
            rise_at_full_load_c: 50.0,
            warning_c: 60.0,
            critical_c: 75.0,
        };
        assert!(s.temperature(1.0, 1.0) < s.temperature(1.0, 0.0));
    }
}
