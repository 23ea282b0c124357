//! A TinyOS-like execution model for mote applications.
//!
//! TinyOS structures a mote program as run-to-completion *tasks* posted to
//! a FIFO queue, plus *timers* that post events in the future. This module
//! reproduces that model on the `tcast-sim` kernel so mote applications
//! (the serial command handlers, periodic sensing, watchdogs) execute with
//! the same scheduling semantics as on real hardware:
//!
//! * `post` enqueues a task; tasks run FIFO, never preempting each other;
//! * one-shot and periodic timers fire as events and may post tasks;
//! * everything is driven from a single virtual clock.

use std::collections::VecDeque;

use tcast_sim::{EventId, EventQueue, SimDuration, SimTime};

/// Identifier of a posted task (FIFO position is the only ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(u64);

/// Identifier of an armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u32);

/// What the runtime hands to the application on each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch<T> {
    /// A posted task is ready to run.
    Task(TaskId, T),
    /// A timer fired.
    Timer(TimerId),
}

#[derive(Debug, Clone, Copy)]
enum Wakeup {
    Timer(TimerId),
}

#[derive(Debug, Clone, Copy)]
struct TimerState {
    event: EventId,
    period: Option<SimDuration>,
    armed: bool,
}

/// The mote operating system: a task queue and timer bank over a virtual
/// clock. Generic over the application's task payload type `T`.
#[derive(Debug)]
pub struct MoteOs<T> {
    queue: EventQueue<Wakeup>,
    tasks: VecDeque<(TaskId, T)>,
    timers: Vec<TimerState>,
    next_task: u64,
}

impl<T> Default for MoteOs<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MoteOs<T> {
    /// A fresh runtime at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            tasks: VecDeque::new(),
            timers: Vec::new(),
            next_task: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Posts a task (TinyOS `post`): it will run after all earlier-posted
    /// tasks, before any timer event is examined.
    pub fn post(&mut self, payload: T) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.tasks.push_back((id, payload));
        id
    }

    /// Arms a one-shot timer (`Timer.startOneShot`).
    pub fn start_one_shot(&mut self, delay: SimDuration) -> TimerId {
        self.arm(delay, None)
    }

    /// Arms a periodic timer (`Timer.startPeriodic`).
    pub fn start_periodic(&mut self, period: SimDuration) -> TimerId {
        self.arm(period, Some(period))
    }

    fn arm(&mut self, delay: SimDuration, period: Option<SimDuration>) -> TimerId {
        let id = TimerId(self.timers.len() as u32);
        let event = self.queue.schedule_in(delay, Wakeup::Timer(id));
        self.timers.push(TimerState {
            event,
            period,
            armed: true,
        });
        id
    }

    /// Stops a timer (`Timer.stop`). Idempotent.
    pub fn stop_timer(&mut self, id: TimerId) {
        if let Some(t) = self.timers.get_mut(id.0 as usize) {
            if t.armed {
                t.armed = false;
                self.queue.cancel(t.event);
            }
        }
    }

    /// Whether a timer is currently armed.
    pub fn timer_armed(&self, id: TimerId) -> bool {
        self.timers
            .get(id.0 as usize)
            .map(|t| t.armed)
            .unwrap_or(false)
    }

    /// Advances the runtime one step: drains the task queue first (tasks
    /// never interleave with time), then fires the next timer event,
    /// advancing the clock. `None` when fully idle.
    pub fn step(&mut self) -> Option<Dispatch<T>> {
        if let Some((id, payload)) = self.tasks.pop_front() {
            return Some(Dispatch::Task(id, payload));
        }
        loop {
            let (_, Wakeup::Timer(id)) = self.queue.pop()?;
            let timer = &mut self.timers[id.0 as usize];
            if !timer.armed {
                continue; // raced with stop
            }
            if let Some(period) = timer.period {
                timer.event = self.queue.schedule_in(period, Wakeup::Timer(id));
            } else {
                timer.armed = false;
            }
            return Some(Dispatch::Timer(id));
        }
    }

    /// Runs until idle or until `max_steps`, feeding every dispatch to the
    /// handler; the handler may post tasks and arm timers through the
    /// `&mut self` it receives.
    pub fn run(&mut self, max_steps: u64, mut handler: impl FnMut(&mut Self, Dispatch<T>)) -> u64 {
        let mut steps = 0;
        while steps < max_steps {
            let Some(dispatch) = self.step() else {
                break;
            };
            handler(self, dispatch);
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_run_fifo_before_timers() {
        let mut os: MoteOs<&str> = MoteOs::new();
        os.start_one_shot(SimDuration::micros(1));
        os.post("a");
        os.post("b");
        assert!(matches!(os.step(), Some(Dispatch::Task(_, "a"))));
        assert!(matches!(os.step(), Some(Dispatch::Task(_, "b"))));
        assert!(matches!(os.step(), Some(Dispatch::Timer(_))));
        assert_eq!(os.step(), None);
    }

    #[test]
    fn one_shot_fires_once() {
        let mut os: MoteOs<()> = MoteOs::new();
        let t = os.start_one_shot(SimDuration::millis(5));
        assert!(os.timer_armed(t));
        assert!(matches!(os.step(), Some(Dispatch::Timer(id)) if id == t));
        assert!(!os.timer_armed(t));
        assert_eq!(os.step(), None);
        assert_eq!(os.now(), SimTime::ZERO + SimDuration::millis(5));
    }

    #[test]
    fn periodic_timer_reschedules_until_stopped() {
        let mut os: MoteOs<()> = MoteOs::new();
        let t = os.start_periodic(SimDuration::millis(10));
        for i in 1..=3 {
            assert!(matches!(os.step(), Some(Dispatch::Timer(id)) if id == t));
            assert_eq!(os.now(), SimTime::ZERO + SimDuration::millis(10 * i));
        }
        os.stop_timer(t);
        assert_eq!(os.step(), None);
    }

    #[test]
    fn stop_is_idempotent_and_safe_mid_queue() {
        let mut os: MoteOs<()> = MoteOs::new();
        let a = os.start_one_shot(SimDuration::millis(1));
        let b = os.start_one_shot(SimDuration::millis(2));
        os.stop_timer(a);
        os.stop_timer(a);
        assert!(matches!(os.step(), Some(Dispatch::Timer(id)) if id == b));
        assert_eq!(os.step(), None);
    }

    #[test]
    fn handler_driven_sense_report_loop() {
        // A classic TinyOS pattern: a periodic sense timer posts a report
        // task; the report task does work (here: counts).
        #[derive(Debug, PartialEq)]
        enum App {
            Report,
        }
        let mut os: MoteOs<App> = MoteOs::new();
        let sense = os.start_periodic(SimDuration::millis(100));
        let mut reports = 0;
        os.run(20, |os, dispatch| match dispatch {
            Dispatch::Timer(id) if id == sense => {
                os.post(App::Report);
                if os.now() >= SimTime::ZERO + SimDuration::millis(500) {
                    os.stop_timer(id);
                }
            }
            Dispatch::Task(_, App::Report) => reports += 1,
            _ => {}
        });
        assert_eq!(reports, 5, "five sensing periods before the stop");
    }

    #[test]
    fn run_respects_step_budget() {
        let mut os: MoteOs<u32> = MoteOs::new();
        os.post(0);
        let steps = os.run(10, |os, d| {
            if let Dispatch::Task(_, v) = d {
                os.post(v + 1); // infinite task chain
            }
        });
        assert_eq!(steps, 10);
    }
}
