//! The social network application (paper Figure 1).
//!
//! A DeathStarBench-like social network with 23 stateless and 6 stateful
//! components offering nine user-facing APIs. The call trees encode the
//! execution-workflow patterns the paper exploits: parallel fan-outs
//! (`/composeAPI` shortening URLs while filtering media), sequential chains
//! (storage after content processing), and background work (home-timeline
//! fan-out after the client already got its response).
//!
//! Payload sizes are parameterised by the synthetic dataset statistics
//! ([`SocialGraphStats`], [`MediaStats`]) so that the network footprints the
//! simulator produces are realistic and API-dependent.

use atlas_sim::{
    ApiSpec, AppTopology, CallEdge, CallNode, ComponentId, ComponentSpec, SizeDist, TimeDist,
};

use crate::datasets::{MediaStats, SocialGraphStats};

/// Options controlling the generated social network model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SocialNetworkOptions {
    /// Social-graph statistics (fan-out, post sizes).
    pub graph: SocialGraphStats,
    /// Media corpus statistics (media sizes, attach probability).
    pub media: MediaStats,
    /// Whether users actively mention friends in posts. Enabling this is the
    /// behaviour change of the drift experiment (paper §5.4, Figure 17): the
    /// `/composeAPI` workflow starts exercising `UserMentionService` heavily,
    /// which lengthens the API when that service is placed across the WAN
    /// from `ComposePostService`.
    pub active_user_mentions: bool,
}

/// Component names in index order; kept in one place so tests and
/// experiments can reference components without magic numbers.
pub mod components {
    /// Ordered list of the 29 component names.
    pub const NAMES: [&str; 29] = [
        "FrontendNGINX",            // 0
        "MediaNGINX",               // 1
        "ComposePostService",       // 2
        "TextService",              // 3
        "UniqueIDService",          // 4
        "URLShortenService",        // 5
        "UserMentionService",       // 6
        "MediaService",             // 7
        "UserService",              // 8
        "SocialGraphService",       // 9
        "PostStorageService",       // 10
        "HomeTimelineService",      // 11
        "UserTimelineService",      // 12
        "WriteHomeTimelineService", // 13
        "UserMemcached",            // 14
        "PostStorageMemcached",     // 15
        "MediaMemcached",           // 16
        "URLShortenMemcached",      // 17
        "SocialGraphRedis",         // 18
        "HomeTimelineRedis",        // 19
        "UserTimelineRedis",        // 20
        "WriteTimelineRabbitMQ",    // 21
        "ComposeRedis",             // 22
        "UserMongoDB",              // 23 (stateful)
        "SocialGraphMongoDB",       // 24 (stateful)
        "PostStorageMongoDB",       // 25 (stateful)
        "UserTimelineMongoDB",      // 26 (stateful)
        "URLShortenMongoDB",        // 27 (stateful)
        "MediaMongoDB",             // 28 (stateful)
    ];

    /// Index of `FrontendNGINX`.
    pub const FRONTEND: usize = 0;
    /// Index of `ComposePostService`.
    pub const COMPOSE_POST: usize = 2;
    /// Index of `UserMentionService`.
    pub const USER_MENTION: usize = 6;
    /// Index of `UserService`.
    pub const USER_SERVICE: usize = 8;
    /// Index of `UserMongoDB`.
    pub const USER_MONGODB: usize = 23;
    /// Index of `PostStorageMongoDB`.
    pub const POST_STORAGE_MONGODB: usize = 25;
    /// Index of `MediaMongoDB`.
    pub const MEDIA_MONGODB: usize = 28;
}

fn cid(i: usize) -> ComponentId {
    ComponentId(i)
}

fn component_specs() -> Vec<ComponentSpec> {
    use components::NAMES;
    NAMES
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            if i >= 23 {
                // MongoDBs: stateful with persistent storage.
                ComponentSpec::stateful(name, 0.15, 1.5, 20.0)
            } else if (14..=22).contains(&i) {
                // Caches and queues: stateless but memory-heavy.
                ComponentSpec::stateless(name, 0.08, 2.0)
            } else if i <= 1 {
                // Front-end proxies.
                ComponentSpec::stateless(name, 0.25, 0.5)
            } else {
                // Business-logic services.
                ComponentSpec::stateless(name, 0.12, 0.75)
            }
        })
        .collect()
}

/// Build the social network topology.
pub fn social_network(options: SocialNetworkOptions) -> AppTopology {
    let g = options.graph;
    let m = options.media;

    let post_bytes = g.mean_post_bytes;
    let timeline_bytes = g.mean_timeline_posts * post_bytes;
    let fanout = g.mean_followers;
    let media_bytes = m.mean_media_bytes;

    let apis = vec![
        api_register(post_bytes),
        api_login(),
        api_follow(),
        api_unfollow(),
        api_compose(
            post_bytes,
            media_bytes,
            fanout,
            options.active_user_mentions,
            m,
        ),
        api_home_timeline(timeline_bytes),
        api_user_timeline(timeline_bytes),
        api_upload_media(media_bytes),
        api_get_media(media_bytes),
    ];

    AppTopology::new("social-network", component_specs(), apis)
        .expect("social network topology is statically valid")
}

// ---------------------------------------------------------------------------
// Helpers for building call trees tersely.
// ---------------------------------------------------------------------------

fn leaf(i: usize, op: &str, us: f64) -> CallNode {
    CallNode::leaf(cid(i), op, TimeDist::new(us))
}

fn sedge(child: CallNode, req: f64, resp: f64) -> CallEdge {
    CallEdge::sync(child, SizeDist::new(req), SizeDist::new(resp))
}

fn bedge(child: CallNode, req: f64, resp: f64) -> CallEdge {
    CallEdge::background(child, SizeDist::new(req), SizeDist::new(resp))
}

// ---------------------------------------------------------------------------
// API call trees.
// ---------------------------------------------------------------------------

/// `/registerAPI`: Frontend → UserService → {UserMongoDB, SocialGraphService
/// → SocialGraphMongoDB}. Sizes roughly follow paper Figure 19.
fn api_register(post_bytes: f64) -> ApiSpec {
    let user_mongo = leaf(components::USER_MONGODB, "InsertUser", 1_800.0);
    let sg_mongo = leaf(24, "InsertNode", 1_200.0);
    let sg_service = leaf(9, "RegisterNode", 900.0).with_stage(vec![sedge(sg_mongo, 204.0, 46.0)]);
    let user_service = leaf(components::USER_SERVICE, "RegisterUser", 1_500.0)
        .with_stage(vec![sedge(user_mongo, 561.0, 144.0)])
        .with_stage(vec![sedge(sg_service, 131.0, 27.0)]);
    let root = leaf(components::FRONTEND, "/registerAPI", 700.0).with_stage(vec![sedge(
        user_service,
        234.0 + post_bytes * 0.0,
        35.0,
    )]);
    ApiSpec::new("/registerAPI", root)
}

/// `/loginAPI`: Frontend → UserService → {UserMemcached, UserMongoDB}.
fn api_login() -> ApiSpec {
    let memcached = leaf(14, "GetCredentials", 250.0);
    let mongo = leaf(components::USER_MONGODB, "FindUser", 1_400.0);
    let user_service = leaf(components::USER_SERVICE, "Login", 1_100.0)
        .with_stage(vec![sedge(memcached, 96.0, 210.0)])
        .with_stage(vec![sedge(mongo, 310.0, 420.0)]);
    let root = leaf(components::FRONTEND, "/loginAPI", 650.0).with_stage(vec![sedge(
        user_service,
        180.0,
        64.0,
    )]);
    ApiSpec::new("/loginAPI", root)
}

/// `/followAPI`: Frontend → SocialGraphService → {SocialGraphRedis,
/// SocialGraphMongoDB} plus a background UserService notification.
fn api_follow() -> ApiSpec {
    let redis = leaf(18, "UpdateFollowers", 350.0);
    let mongo = leaf(24, "InsertEdge", 1_300.0);
    let notify = leaf(components::USER_SERVICE, "NotifyFollow", 600.0);
    let sg_service = leaf(9, "Follow", 950.0)
        .with_stage(vec![sedge(redis, 140.0, 40.0), sedge(mongo, 260.0, 52.0)])
        .with_background(bedge(notify, 120.0, 0.0));
    let root = leaf(components::FRONTEND, "/followAPI", 600.0)
        .with_stage(vec![sedge(sg_service, 150.0, 32.0)]);
    ApiSpec::new("/followAPI", root)
}

/// `/unfollowAPI`: same skeleton as `/followAPI` with smaller writes.
fn api_unfollow() -> ApiSpec {
    let redis = leaf(18, "RemoveFollower", 320.0);
    let mongo = leaf(24, "DeleteEdge", 1_150.0);
    let sg_service = leaf(9, "Unfollow", 900.0)
        .with_stage(vec![sedge(redis, 130.0, 36.0), sedge(mongo, 240.0, 44.0)]);
    let root = leaf(components::FRONTEND, "/unfollowAPI", 600.0)
        .with_stage(vec![sedge(sg_service, 150.0, 32.0)]);
    ApiSpec::new("/unfollowAPI", root)
}

/// `/composeAPI` (paper Figure 6): the most complex workflow.
///
/// Frontend → ComposePostService, which runs text processing (text, unique
/// id, URL shortening, user mentions, media) in parallel, then stores the
/// post sequentially, and finally fans out to followers' home timelines in
/// the background.
fn api_compose(
    post_bytes: f64,
    media_bytes: f64,
    fanout: f64,
    active_mentions: bool,
    media: MediaStats,
) -> ApiSpec {
    // Text-processing stage (parallel).
    let text = leaf(3, "ProcessText", 1_600.0);
    let unique_id = leaf(4, "GenerateId", 300.0);
    let url_mongo = leaf(27, "InsertUrls", 900.0);
    let url_memcached = leaf(17, "CacheUrls", 220.0);
    let url_shorten = leaf(5, "ShortenUrls", 1_200.0).with_stage(vec![
        sedge(url_mongo, 180.0, 40.0),
        sedge(url_memcached, 120.0, 24.0),
    ]);
    // User-mention lookups: light when users rarely tag friends, heavy (more
    // and larger lookups) once the behaviour change kicks in.
    let (mention_compute, mention_req, mention_resp) = if active_mentions {
        (2_600.0, 640.0, 1_450.0)
    } else {
        (500.0, 90.0, 110.0)
    };
    let mention_mongo = leaf(
        components::USER_MONGODB,
        "FindMentionedUsers",
        mention_compute * 0.6,
    );
    let user_mention = leaf(components::USER_MENTION, "ResolveMentions", mention_compute)
        .with_stage(vec![sedge(mention_mongo, mention_req, mention_resp)]);
    let media_mongo = leaf(components::MEDIA_MONGODB, "StoreMediaRef", 800.0);
    let media_service = leaf(7, "FilterMedia", 2_200.0).with_stage(vec![sedge(
        media_mongo,
        media.media_attach_probability * media_bytes * 0.1,
        60.0,
    )]);

    // Post-storage stage (sequential after text processing).
    let post_mongo = leaf(components::POST_STORAGE_MONGODB, "InsertPost", 1_700.0);
    let post_memcached = leaf(15, "CachePost", 260.0);
    let post_storage = leaf(10, "StorePost", 1_300.0)
        .with_stage(vec![sedge(post_mongo, post_bytes * 1.6, 72.0)])
        .with_stage(vec![sedge(post_memcached, post_bytes * 1.2, 24.0)]);
    let user_timeline_mongo = leaf(26, "AppendPost", 1_100.0);
    let user_timeline = leaf(12, "UpdateUserTimeline", 800.0).with_stage(vec![sedge(
        user_timeline_mongo,
        240.0,
        36.0,
    )]);

    // Background home-timeline fan-out through the message queue.
    let ht_redis = leaf(19, "UpdateTimelines", 900.0 + fanout * 40.0);
    let sg_redis = leaf(18, "GetFollowers", 400.0);
    let write_home_timeline = leaf(13, "FanOut", 1_500.0 + fanout * 60.0)
        .with_stage(vec![sedge(sg_redis, 110.0, fanout * 8.0)])
        .with_stage(vec![sedge(ht_redis, fanout * 48.0, 30.0)]);
    let rabbitmq = leaf(21, "Enqueue", 300.0).with_background(bedge(
        write_home_timeline,
        post_bytes * 1.1,
        0.0,
    ));

    let compose_redis = leaf(22, "CacheDraft", 200.0);
    let compose = leaf(components::COMPOSE_POST, "ComposePost", 2_000.0)
        .with_stage(vec![
            sedge(text, post_bytes * 1.1, post_bytes * 0.4),
            sedge(unique_id, 48.0, 24.0),
            sedge(url_shorten, 210.0, 96.0),
            sedge(user_mention, mention_req * 0.8, mention_resp * 0.5),
            sedge(
                media_service,
                media.media_attach_probability * media_bytes,
                110.0,
            ),
        ])
        .with_stage(vec![
            sedge(post_storage, post_bytes * 1.8, 64.0),
            sedge(user_timeline, 210.0, 40.0),
        ])
        .with_stage(vec![sedge(compose_redis, post_bytes * 0.6, 20.0)])
        .with_background(bedge(rabbitmq, post_bytes * 1.2, 0.0));

    let root = leaf(components::FRONTEND, "/composeAPI", 900.0).with_stage(vec![sedge(
        compose,
        post_bytes * 1.3,
        85.0,
    )]);
    ApiSpec::new("/composeAPI", root)
}

/// `/homeTimelineAPI`: Frontend → HomeTimelineService → {HomeTimelineRedis,
/// PostStorageService → {memcached, MongoDB}} with sizable responses.
fn api_home_timeline(timeline_bytes: f64) -> ApiSpec {
    let ht_redis = leaf(19, "GetTimelineIds", 600.0);
    let post_memcached = leaf(15, "MGetPosts", 500.0);
    let post_mongo = leaf(components::POST_STORAGE_MONGODB, "FindPosts", 2_300.0);
    let post_storage = leaf(10, "ReadPosts", 1_200.0)
        .with_stage(vec![sedge(post_memcached, 260.0, timeline_bytes * 0.5)])
        .with_stage(vec![sedge(post_mongo, 310.0, timeline_bytes)]);
    let ht_service = leaf(11, "ReadHomeTimeline", 1_000.0)
        .with_stage(vec![sedge(ht_redis, 130.0, 380.0)])
        .with_stage(vec![sedge(post_storage, 300.0, timeline_bytes)]);
    let root = leaf(components::FRONTEND, "/homeTimelineAPI", 800.0).with_stage(vec![sedge(
        ht_service,
        140.0,
        timeline_bytes,
    )]);
    ApiSpec::new("/homeTimelineAPI", root)
}

/// `/userTimelineAPI`: like the home timeline but served from the user
/// timeline store.
fn api_user_timeline(timeline_bytes: f64) -> ApiSpec {
    let ut_redis = leaf(20, "GetTimelineIds", 550.0);
    let ut_mongo = leaf(26, "FindTimeline", 1_900.0);
    let post_memcached = leaf(15, "MGetPosts", 500.0);
    let post_storage = leaf(10, "ReadPosts", 1_100.0).with_stage(vec![sedge(
        post_memcached,
        240.0,
        timeline_bytes * 0.7,
    )]);
    let ut_service = leaf(12, "ReadUserTimeline", 950.0)
        .with_stage(vec![
            sedge(ut_redis, 120.0, 300.0),
            sedge(ut_mongo, 280.0, timeline_bytes * 0.8),
        ])
        .with_stage(vec![sedge(post_storage, 280.0, timeline_bytes)]);
    let root = leaf(components::FRONTEND, "/userTimelineAPI", 750.0).with_stage(vec![sedge(
        ut_service,
        140.0,
        timeline_bytes,
    )]);
    ApiSpec::new("/userTimelineAPI", root)
}

/// `/uploadMediaAPI`: MediaNGINX → MediaService → {MediaMongoDB,
/// MediaMemcached}; request payloads carry the media object.
fn api_upload_media(media_bytes: f64) -> ApiSpec {
    let media_mongo = leaf(components::MEDIA_MONGODB, "StoreMedia", 3_500.0);
    let media_memcached = leaf(16, "CacheMedia", 700.0);
    let media_service = leaf(7, "UploadMedia", 2_800.0)
        .with_stage(vec![sedge(media_mongo, media_bytes, 64.0)])
        .with_background(bedge(media_memcached, media_bytes * 0.4, 0.0));
    let root = leaf(1, "/uploadMediaAPI", 1_200.0).with_stage(vec![sedge(
        media_service,
        media_bytes,
        48.0,
    )]);
    ApiSpec::new("/uploadMediaAPI", root)
}

/// `/getMediaAPI`: MediaNGINX → MediaService → {MediaMemcached,
/// MediaMongoDB}; response payloads carry the media object.
fn api_get_media(media_bytes: f64) -> ApiSpec {
    let media_memcached = leaf(16, "GetCachedMedia", 550.0);
    let media_mongo = leaf(components::MEDIA_MONGODB, "FindMedia", 2_600.0);
    let media_service = leaf(7, "GetMedia", 1_700.0)
        .with_stage(vec![sedge(media_memcached, 96.0, media_bytes * 0.6)])
        .with_stage(vec![sedge(media_mongo, 140.0, media_bytes)]);
    let root =
        leaf(1, "/getMediaAPI", 900.0).with_stage(vec![sedge(media_service, 120.0, media_bytes)]);
    ApiSpec::new("/getMediaAPI", root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_paper_component_and_api_counts() {
        let app = social_network(SocialNetworkOptions::default());
        assert_eq!(app.component_count(), 29);
        assert_eq!(app.api_count(), 9);
        let stateful = app.stateful_components();
        assert_eq!(stateful.len(), 6, "six stateful MongoDB components");
    }

    #[test]
    fn all_figure1_apis_exist() {
        let app = social_network(SocialNetworkOptions::default());
        for api in [
            "/registerAPI",
            "/loginAPI",
            "/followAPI",
            "/unfollowAPI",
            "/composeAPI",
            "/homeTimelineAPI",
            "/userTimelineAPI",
            "/uploadMediaAPI",
            "/getMediaAPI",
        ] {
            assert!(app.api(api).is_some(), "missing {api}");
        }
    }

    #[test]
    fn component_names_are_consistent_with_indices() {
        let app = social_network(SocialNetworkOptions::default());
        assert_eq!(
            app.component_name(ComponentId(components::FRONTEND)),
            "FrontendNGINX"
        );
        assert_eq!(
            app.component_name(ComponentId(components::USER_MONGODB)),
            "UserMongoDB"
        );
        assert_eq!(
            app.component_id("ComposePostService"),
            Some(ComponentId(components::COMPOSE_POST))
        );
    }

    #[test]
    fn compose_uses_parallel_sequential_and_background_patterns() {
        let app = social_network(SocialNetworkOptions::default());
        let compose = app.api("/composeAPI").unwrap();
        // Root delegates to ComposePostService which has ≥2 stages (sequential)
        // with ≥2 edges in the first stage (parallel) and a background edge.
        let compose_node = &compose.root.stages[0][0].child;
        assert!(compose_node.stages.len() >= 2);
        assert!(compose_node.stages[0].len() >= 2);
        assert!(!compose_node.background.is_empty());
    }

    #[test]
    fn register_reaches_user_and_social_graph_databases() {
        let app = social_network(SocialNetworkOptions::default());
        let stateful = app.stateful_components_of_api("/registerAPI");
        let names: Vec<&str> = stateful.iter().map(|&c| app.component_name(c)).collect();
        assert!(names.contains(&"UserMongoDB"));
        assert!(names.contains(&"SocialGraphMongoDB"));
    }

    #[test]
    fn media_apis_have_media_heavy_payloads() {
        let app = social_network(SocialNetworkOptions::default());
        let fp = app.ground_truth_footprints();
        let upload_req: f64 = fp
            .iter()
            .filter(|(api, _, _, _, _)| api == "/uploadMediaAPI")
            .map(|(_, _, _, req, _)| *req)
            .fold(0.0, f64::max);
        let login_req: f64 = fp
            .iter()
            .filter(|(api, _, _, _, _)| api == "/loginAPI")
            .map(|(_, _, _, req, _)| *req)
            .fold(0.0, f64::max);
        assert!(
            upload_req > 20.0 * login_req,
            "media uploads should dominate login payloads ({upload_req} vs {login_req})"
        );
    }

    #[test]
    fn active_mentions_enlarge_the_mention_edge() {
        let quiet = social_network(SocialNetworkOptions::default());
        let active = social_network(SocialNetworkOptions {
            active_user_mentions: true,
            ..SocialNetworkOptions::default()
        });
        let edge_bytes = |app: &AppTopology| {
            app.ground_truth_footprints()
                .into_iter()
                .filter(|(api, _, to, _, _)| {
                    api == "/composeAPI" && *to == ComponentId(components::USER_MONGODB)
                })
                .map(|(_, _, _, req, resp)| req + resp)
                .sum::<f64>()
        };
        assert!(edge_bytes(&active) > 3.0 * edge_bytes(&quiet));
    }

    #[test]
    fn all_components_are_reachable_from_some_api() {
        let app = social_network(SocialNetworkOptions::default());
        let mut reachable = std::collections::HashSet::new();
        for api in app.apis() {
            for c in api.root.reachable_components() {
                reachable.insert(c.0);
            }
        }
        assert_eq!(
            reachable.len(),
            app.component_count(),
            "every component should participate in at least one API"
        );
    }
}
