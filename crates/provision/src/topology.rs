//! Topology specifications and diffing.
//!
//! A topology is "the specification of what will be deployed" (§III.A): the
//! domain's users and services, the worker cluster, and the EC2 settings.
//! Topologies are parsed from the paper's INI `galaxy.conf` format or from
//! the JSON used by `gp-instance-update`, and two topologies can be diffed
//! into the [`TopologyDelta`] that the reconfiguration engine applies to a
//! running instance.

use cumulus_cloud::InstanceType;

use crate::ini::{IniDoc, IniError};
use crate::json::{Json, JsonError};

/// The largest `cluster-nodes` count a `galaxy.conf` or a
/// `gp-instance-update` delta may ask for. Both formats expand the count
/// into one vector entry per worker before the cloud's instance limit
/// (20 by default) can reject it, so an unchecked `4294967295` would ask
/// for gigabytes first. The bound sits far above every cluster deployed
/// in this workspace (the largest is 6 workers) and the default instance
/// limit, so the cloud still decides every realistic request, while the
/// largest vector it admits is a few kilobytes.
pub const MAX_CLUSTER_NODES: u32 = 1_000;

/// A full deployment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Domain name (the paper uses a single domain, `simple`).
    pub domain: String,
    /// User accounts to create (with certificates and GO credentials).
    pub users: Vec<String>,
    /// Deploy a GridFTP server / Globus endpoint.
    pub gridftp: bool,
    /// Deploy a Condor scheduler.
    pub condor: bool,
    /// Deploy the Galaxy application.
    pub galaxy: bool,
    /// Deploy the CRData toolset (§IV.B).
    pub crdata: bool,
    /// Deploy a dedicated NFS/NIS server node (otherwise the Galaxy node
    /// hosts the shared filesystem).
    pub nfs_node: bool,
    /// Globus Online endpoint name to create, e.g. `cvrg#galaxy`.
    pub go_endpoint: Option<String>,
    /// Instance type for the Galaxy head node.
    pub head_type: InstanceType,
    /// Instance types of the Condor worker nodes, in position order.
    pub workers: Vec<InstanceType>,
    /// Base AMI.
    pub ami: String,
    /// EC2 keypair name.
    pub keypair: String,
    /// Path to the private key file.
    pub keyfile: String,
    /// SSH key registered with Globus Online.
    pub ssh_key: Option<String>,
}

impl Topology {
    /// A minimal single-node Galaxy topology (no workers) — what the
    /// Figure 10 deployment sweep uses.
    pub fn single_node(head_type: InstanceType) -> Topology {
        Topology {
            domain: "simple".to_string(),
            users: vec!["user1".to_string()],
            gridftp: true,
            condor: true,
            galaxy: true,
            crdata: true,
            nfs_node: false,
            go_endpoint: Some("cvrg#galaxy".to_string()),
            head_type,
            workers: Vec::new(),
            ami: cumulus_cloud::GP_PUBLIC_AMI.to_string(),
            keypair: "gp-key".to_string(),
            keyfile: "~/.ec2/gp-key.pem".to_string(),
            ssh_key: Some("~/.ssh/id_rsa".to_string()),
        }
    }

    /// The paper's Figure 3 topology: two t1.micro workers plus the usual
    /// services.
    pub fn figure3() -> Topology {
        let mut t = Topology::single_node(InstanceType::T1Micro);
        t.users = vec!["user1".to_string(), "user2".to_string()];
        t.workers = vec![InstanceType::T1Micro, InstanceType::T1Micro];
        t
    }

    /// Parse the INI `galaxy.conf` format (Figure 3).
    pub fn from_ini(text: &str) -> Result<Topology, TopologyError> {
        let doc = IniDoc::parse(text).map_err(TopologyError::Ini)?;
        let domains = doc.get_list("general", "domains");
        let domain = domains
            .first()
            .cloned()
            .ok_or_else(|| TopologyError::Missing("general.domains".to_string()))?;
        let section = format!("domain-{domain}");
        if !doc.has_section(&section) {
            return Err(TopologyError::Missing(format!("[{section}]")));
        }

        let head_type = parse_type(doc.get("ec2", "instance-type").unwrap_or("t1.micro"))?;
        let node_count = cluster_nodes(doc.get_u32(&section, "cluster-nodes").unwrap_or(0))?;
        let worker_type = match doc.get(&section, "worker-instance-type") {
            Some(s) => parse_type(s)?,
            None => head_type,
        };

        Ok(Topology {
            domain,
            users: doc.get_list(&section, "users"),
            gridftp: doc.get_bool(&section, "gridftp").unwrap_or(false),
            condor: doc.get_bool(&section, "condor").unwrap_or(false),
            galaxy: doc.get_bool(&section, "galaxy").unwrap_or(false),
            crdata: doc.get_bool(&section, "crdata").unwrap_or(false),
            nfs_node: doc.get_bool(&section, "nfs").unwrap_or(false),
            go_endpoint: doc.get(&section, "go-endpoint").map(str::to_string),
            head_type,
            workers: vec![worker_type; node_count],
            ami: doc
                .get("ec2", "ami")
                .unwrap_or(cumulus_cloud::GP_PUBLIC_AMI)
                .to_string(),
            keypair: doc.get("ec2", "keypair").unwrap_or("gp-key").to_string(),
            keyfile: doc.get("ec2", "keyfile").unwrap_or("").to_string(),
            ssh_key: doc.get("globusonline", "ssh-key").map(str::to_string),
        })
    }

    /// Render back to the INI format.
    pub fn to_ini(&self) -> String {
        let mut doc = IniDoc::new();
        doc.set("general", "domains", &self.domain);
        let section = format!("domain-{}", self.domain);
        doc.set(&section, "users", &self.users.join(" "));
        doc.set(&section, "gridftp", if self.gridftp { "yes" } else { "no" });
        doc.set(&section, "condor", if self.condor { "yes" } else { "no" });
        doc.set(&section, "galaxy", if self.galaxy { "yes" } else { "no" });
        doc.set(&section, "crdata", if self.crdata { "yes" } else { "no" });
        doc.set(&section, "nfs", if self.nfs_node { "yes" } else { "no" });
        doc.set(&section, "cluster-nodes", &self.workers.len().to_string());
        if let Some(ep) = &self.go_endpoint {
            doc.set(&section, "go-endpoint", ep);
        }
        if let Some(first) = self.workers.first() {
            doc.set(&section, "worker-instance-type", first.api_name());
        }
        doc.set("ec2", "keypair", &self.keypair);
        doc.set("ec2", "keyfile", &self.keyfile);
        doc.set("ec2", "ami", &self.ami);
        doc.set("ec2", "instance-type", self.head_type.api_name());
        if let Some(key) = &self.ssh_key {
            doc.set("globusonline", "ssh-key", key);
        }
        doc.render()
    }

    /// Apply a JSON update document (the `gp-instance-update` payload) on
    /// top of this topology, producing the new target topology. Recognized
    /// keys under `domains.<name>`: `users` (array), `cluster-nodes`
    /// (number), `worker-instance-type` (string, used for added workers),
    /// `workers` (array of type names, full override), `crdata` (bool),
    /// `galaxy`/`gridftp`/`condor` (bool). Under `ec2`: `instance-type`.
    pub fn with_json_update(&self, text: &str) -> Result<Topology, TopologyError> {
        let v = Json::parse(text).map_err(TopologyError::Json)?;
        let mut next = self.clone();

        if let Some(domain) = v.get("domains").and_then(|d| d.get(&self.domain)) {
            if let Some(users) = domain.get("users").and_then(Json::as_arr) {
                next.users = users
                    .iter()
                    .filter_map(|u| u.as_str().map(str::to_string))
                    .collect();
            }
            if let Some(workers) = domain.get("workers").and_then(Json::as_arr) {
                next.workers = workers
                    .iter()
                    .map(|w| {
                        w.as_str()
                            .ok_or_else(|| {
                                TopologyError::Invalid(
                                    "workers entries must be strings".to_string(),
                                )
                            })
                            .and_then(parse_type)
                    })
                    .collect::<Result<_, _>>()?;
            } else if let Some(n) = domain.get("cluster-nodes").and_then(Json::as_u32) {
                let add_type = match domain.get("worker-instance-type").and_then(Json::as_str) {
                    Some(s) => parse_type(s)?,
                    None => self.head_type,
                };
                next.workers.resize(cluster_nodes(n)?, add_type);
            }
            if let Some(b) = domain.get("galaxy").and_then(Json::as_bool) {
                next.galaxy = b;
            }
            if let Some(b) = domain.get("gridftp").and_then(Json::as_bool) {
                next.gridftp = b;
            }
            if let Some(b) = domain.get("condor").and_then(Json::as_bool) {
                next.condor = b;
            }
            if let Some(b) = domain.get("crdata").and_then(Json::as_bool) {
                next.crdata = b;
            }
        }

        if let Some(ec2) = v.get("ec2") {
            if let Some(t) = ec2.get("instance-type").and_then(Json::as_str) {
                next.head_type = parse_type(t)?;
            }
        }

        Ok(next)
    }

    /// Compute the delta turning `self` (the running topology) into
    /// `target`.
    pub fn diff(&self, target: &Topology) -> TopologyDelta {
        let mut delta = TopologyDelta::default();

        // Workers: positional comparison.
        let common = self.workers.len().min(target.workers.len());
        for i in 0..common {
            if self.workers[i] != target.workers[i] {
                delta.change_worker_type.push((i, target.workers[i]));
            }
        }
        for i in common..target.workers.len() {
            delta.add_workers.push((i, target.workers[i]));
        }
        for i in common..self.workers.len() {
            delta.remove_workers.push(i);
        }

        if self.head_type != target.head_type {
            delta.change_head_type = Some(target.head_type);
        }

        for u in &target.users {
            if !self.users.contains(u) {
                delta.add_users.push(u.clone());
            }
        }
        for u in &self.users {
            if !target.users.contains(u) {
                delta.remove_users.push(u.clone());
            }
        }

        if !self.crdata && target.crdata {
            delta.enable_crdata = true;
        }

        delta
    }
}

/// The difference between two topologies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopologyDelta {
    /// Workers to add: (position, type).
    pub add_workers: Vec<(usize, InstanceType)>,
    /// Worker positions to remove.
    pub remove_workers: Vec<usize>,
    /// Worker positions whose instance type changes.
    pub change_worker_type: Vec<(usize, InstanceType)>,
    /// New head-node type, if changing.
    pub change_head_type: Option<InstanceType>,
    /// Users to add.
    pub add_users: Vec<String>,
    /// Users to remove.
    pub remove_users: Vec<String>,
    /// Deploy the CRData toolset onto the running instance.
    pub enable_crdata: bool,
}

impl TopologyDelta {
    /// True when nothing changes.
    pub fn is_empty(&self) -> bool {
        *self == TopologyDelta::default()
    }
}

/// Errors from topology parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// INI syntax error.
    Ini(IniError),
    /// JSON syntax error.
    Json(JsonError),
    /// A required key is missing.
    Missing(String),
    /// A value is malformed.
    Invalid(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Ini(e) => write!(f, "topology INI: {e}"),
            TopologyError::Json(e) => write!(f, "topology JSON: {e}"),
            TopologyError::Missing(k) => write!(f, "topology missing {k}"),
            TopologyError::Invalid(m) => write!(f, "invalid topology: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// `n` as a worker count, refused above [`MAX_CLUSTER_NODES`].
fn cluster_nodes(n: u32) -> Result<usize, TopologyError> {
    if n > MAX_CLUSTER_NODES {
        return Err(TopologyError::Invalid(format!(
            "cluster-nodes {n} exceeds the limit of {MAX_CLUSTER_NODES}"
        )));
    }
    Ok(n as usize)
}

fn parse_type(s: &str) -> Result<InstanceType, TopologyError> {
    s.parse()
        .map_err(|_| TopologyError::Invalid(format!("unknown instance type {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GALAXY_CONF: &str = "\
[general]
domains: simple
[domain-simple]
users: user1 user2
gridftp: yes
condor: yes
cluster-nodes: 2
galaxy: yes
go-endpoint: cvrg#galaxy
[ec2]
keypair: gp-key
keyfile: ~/.ec2/gp-key.pem
ami: ami-b12ee0d8
instance-type: t1.micro
[globusonline]
ssh-key: ~/.ssh/id_rsa
";

    #[test]
    fn parses_figure3() {
        let t = Topology::from_ini(GALAXY_CONF).unwrap();
        assert_eq!(t.domain, "simple");
        assert_eq!(t.users, vec!["user1", "user2"]);
        assert!(t.gridftp && t.condor && t.galaxy);
        assert_eq!(t.workers, vec![InstanceType::T1Micro; 2]);
        assert_eq!(t.head_type, InstanceType::T1Micro);
        assert_eq!(t.go_endpoint.as_deref(), Some("cvrg#galaxy"));
        assert_eq!(t.ami, "ami-b12ee0d8");
        assert_eq!(t.ssh_key.as_deref(), Some("~/.ssh/id_rsa"));
    }

    #[test]
    fn ini_round_trip() {
        let t = Topology::figure3();
        let t2 = Topology::from_ini(&t.to_ini()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn missing_domain_section_errors() {
        let err = Topology::from_ini("[general]\ndomains: ghost\n").unwrap_err();
        assert!(matches!(err, TopologyError::Missing(_)));
        let err = Topology::from_ini("[general]\nx: 1\n").unwrap_err();
        assert!(matches!(err, TopologyError::Missing(_)));
    }

    #[test]
    fn bad_instance_type_errors() {
        let conf = GALAXY_CONF.replace("t1.micro", "quantum.mega");
        assert!(matches!(
            Topology::from_ini(&conf).unwrap_err(),
            TopologyError::Invalid(_)
        ));
    }

    #[test]
    fn json_update_adds_a_medium_worker() {
        // The paper's use case: "requesting a new host with the instance
        // type c1.medium".
        let t = Topology::figure3();
        let next = t
            .with_json_update(
                r#"{"domains":{"simple":{"cluster-nodes":3,"worker-instance-type":"c1.medium"}}}"#,
            )
            .unwrap();
        assert_eq!(next.workers.len(), 3);
        assert_eq!(next.workers[2], InstanceType::C1Medium);
        let delta = t.diff(&next);
        assert_eq!(delta.add_workers, vec![(2, InstanceType::C1Medium)]);
        assert!(delta.remove_workers.is_empty());
        assert!(!delta.is_empty());
    }

    #[test]
    fn json_update_full_worker_override() {
        let t = Topology::figure3();
        let next = t
            .with_json_update(r#"{"domains":{"simple":{"workers":["m1.large"]}}}"#)
            .unwrap();
        assert_eq!(next.workers, vec![InstanceType::M1Large]);
        let delta = t.diff(&next);
        assert_eq!(delta.change_worker_type, vec![(0, InstanceType::M1Large)]);
        assert_eq!(delta.remove_workers, vec![1]);
    }

    #[test]
    fn json_update_scales_down() {
        let t = Topology::figure3();
        let next = t
            .with_json_update(r#"{"domains":{"simple":{"cluster-nodes":0}}}"#)
            .unwrap();
        assert!(next.workers.is_empty());
        let delta = t.diff(&next);
        assert_eq!(delta.remove_workers, vec![0, 1]);
    }

    #[test]
    fn json_update_users_and_flags() {
        let t = Topology::figure3();
        let next = t
            .with_json_update(r#"{"domains":{"simple":{"users":["user1","user3"],"crdata":true}}}"#)
            .unwrap();
        let delta = t.diff(&next);
        assert_eq!(delta.add_users, vec!["user3"]);
        assert_eq!(delta.remove_users, vec!["user2"]);
        // figure3 already has crdata on, so no enable event.
        assert!(!delta.enable_crdata);
    }

    #[test]
    fn enable_crdata_detected() {
        let mut t = Topology::figure3();
        t.crdata = false;
        let mut target = t.clone();
        target.crdata = true;
        assert!(t.diff(&target).enable_crdata);
    }

    #[test]
    fn head_type_change_detected() {
        let t = Topology::single_node(InstanceType::M1Small);
        let next = t
            .with_json_update(r#"{"ec2":{"instance-type":"m1.xlarge"}}"#)
            .unwrap();
        assert_eq!(t.diff(&next).change_head_type, Some(InstanceType::M1Xlarge));
    }

    #[test]
    fn identical_topologies_have_empty_delta() {
        let t = Topology::figure3();
        assert!(t.diff(&t.clone()).is_empty());
    }

    #[test]
    fn oversized_cluster_counts_are_refused_before_allocating() {
        let limit = MAX_CLUSTER_NODES.to_string();
        let over = u32::MAX.to_string();
        let ini = |n: &str| {
            let line = format!("cluster-nodes: {n}");
            GALAXY_CONF.replace("cluster-nodes: 2", &line)
        };
        let at_limit = Topology::from_ini(&ini(&limit)).unwrap();
        assert_eq!(at_limit.workers.len(), MAX_CLUSTER_NODES as usize);
        assert!(matches!(
            Topology::from_ini(&ini(&over)).unwrap_err(),
            TopologyError::Invalid(_)
        ));
        let json = |n: &str| format!(r#"{{"domains":{{"simple":{{"cluster-nodes":{n}}}}}}}"#);
        let t = Topology::figure3();
        let grown = t.with_json_update(&json(&limit)).unwrap();
        assert_eq!(grown.workers.len(), MAX_CLUSTER_NODES as usize);
        assert!(matches!(
            t.with_json_update(&json(&over)).unwrap_err(),
            TopologyError::Invalid(_)
        ));
    }

    #[test]
    fn bad_json_update_errors() {
        let t = Topology::figure3();
        assert!(matches!(
            t.with_json_update("{nope").unwrap_err(),
            TopologyError::Json(_)
        ));
        assert!(matches!(
            t.with_json_update(r#"{"domains":{"simple":{"workers":[42]}}}"#)
                .unwrap_err(),
            TopologyError::Invalid(_)
        ));
        assert!(matches!(
            t.with_json_update(r#"{"ec2":{"instance-type":"warp9"}}"#)
                .unwrap_err(),
            TopologyError::Invalid(_)
        ));
    }
}
